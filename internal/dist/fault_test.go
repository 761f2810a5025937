package dist

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cvcp/internal/cvcp"
	"cvcp/internal/store"
	"cvcp/internal/store/storetest"
)

var errInjected = errors.New("storetest: injected failure")

// TestCoordinatorShardPutFailure: a store refusing the first shard
// record must fail RunJob immediately with the store's error — and
// still clean up.
func TestCoordinatorShardPutFailure(t *testing.T) {
	mem := store.NewMemory()
	defer mem.Close()
	jobID, plan := publishJob(t, mem, testJobSpec{Seed: 71})
	faulty := storetest.Wrap(mem)
	faulty.FailCalls(storetest.OpPut, errInjected, 1) // shard 0 is the coordinator's first Put

	coord := &Coordinator{Store: faulty, Poll: 3 * time.Millisecond}
	_, err := coord.RunJob(context.Background(), jobID, plan, nil)
	if !errors.Is(err, errInjected) {
		t.Fatalf("RunJob error = %v, want the injected store failure", err)
	}
	if !strings.Contains(err.Error(), "publishing shard 0") {
		t.Errorf("err = %v, want the shard-publishing context", err)
	}
	requireNoDistRecords(t, mem, jobID)
}

// TestCoordinatorShardReadFailure: a store error while watching shards
// must abort RunJob with the read error and tear the job's records down,
// so workers stop finding its shards.
func TestCoordinatorShardReadFailure(t *testing.T) {
	mem := store.NewMemory()
	defer mem.Close()
	jobID, plan := publishJob(t, mem, testJobSpec{Seed: 72})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	startWorker(ctx, &wg, mem, "w0") // workers see the healthy store

	faulty := storetest.Wrap(mem)
	faulty.FailCalls(storetest.OpGet, errInjected, 1) // first watch read
	coord := &Coordinator{Store: faulty, Poll: 3 * time.Millisecond}
	_, err := coord.RunJob(ctx, jobID, plan, nil)
	if !errors.Is(err, errInjected) {
		t.Fatalf("RunJob error = %v, want the injected store failure", err)
	}
	if !strings.Contains(err.Error(), "reading shard") {
		t.Errorf("err = %v, want the shard-read context", err)
	}
	requireNoDistRecords(t, mem, jobID)
	cancel()
	wg.Wait()
}

// writeLog is a worker's Store that records every record written
// through it, in order. With refuseDone set it refuses the first done
// transition, which it recognizes by the record the transition would
// write, with errInjected; a heartbeat of the same shard passes.
type writeLog struct {
	Store
	refuseDone bool

	mu      sync.Mutex
	writes  []store.Record
	refused *store.Record // the refused done transition's record
}

func (l *writeLog) Put(rec store.Record) error {
	if err := l.Store.Put(rec); err != nil {
		return err
	}
	l.mu.Lock()
	l.writes = append(l.writes, rec)
	l.mu.Unlock()
	return nil
}

func (l *writeLog) Update(id string, fn func(store.Record, bool) (store.Record, bool, error)) (store.Record, error) {
	injected := false
	rec, err := l.Store.Update(id, func(cur store.Record, ok bool) (store.Record, bool, error) {
		next, write, err := fn(cur, ok)
		l.mu.Lock()
		defer l.mu.Unlock()
		if err != nil || !write {
			return next, write, err
		}
		if l.refuseDone && l.refused == nil && next.Status == ShardDone {
			l.refused, injected = &next, true
			return cur, false, nil
		}
		l.writes = append(l.writes, next)
		return next, true, nil
	})
	if injected {
		return store.Record{}, errInjected
	}
	return rec, err
}

// TestWorkerDoneTransitionFailureReclaimed: a worker that computes a
// shard but cannot write its done transition leaves the shard leased;
// the lease expires, the shard is re-leased at a higher epoch and
// recomputed, and the job still finishes bit-identical to single-node.
// This is the crash-equivalence claim for the write path: losing a
// result write is indistinguishable from losing the worker.
func TestWorkerDoneTransitionFailureReclaimed(t *testing.T) {
	ts := testJobSpec{Seed: 73}
	want, err := cvcp.Select(context.Background(), testSelectionSpec(ts))
	if err != nil {
		t.Fatal(err)
	}
	mem := store.NewMemory()
	defer mem.Close()
	jobID, plan := publishJob(t, mem, ts)
	wlog := &writeLog{Store: mem, refuseDone: true}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	reclaimsBefore := mShardReclaims.Value()
	startWorker(ctx, &wg, wlog, "w0")

	coord := &Coordinator{Store: mem, Poll: 3 * time.Millisecond}
	scores, err := coord.RunJob(ctx, jobID, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.Finalize(context.Background(), scores, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, want, got, "post-done-failure vs single-node")

	cancel()
	wg.Wait()
	refused := wlog.refused
	if refused == nil {
		t.Fatal("no done transition was refused")
	}
	lost, err := decodeShardState(*refused)
	if err != nil {
		t.Fatal(err)
	}
	// The refused shard was done later, by a lease of a higher epoch —
	// visible as a reclaim in the worker's own accounting.
	redone := false
	for _, rec := range wlog.writes {
		st, err := decodeShardState(rec)
		if err == nil && rec.ID == refused.ID && rec.Status == ShardDone && st.Epoch > lost.Epoch {
			redone = true
		}
	}
	if !redone {
		t.Errorf("shard %s was not done at an epoch above %d after its refused done transition", refused.ID, lost.Epoch)
	}
	if d := mShardReclaims.Value() - reclaimsBefore; d < 1 {
		t.Errorf("no shard lease was reclaimed after the refused done transition (reclaim delta %d)", d)
	}
	requireNoDistRecords(t, mem, jobID)
}

// TestWorkerJobReadFailureReclaimed: a worker whose read of the job
// record fails has learned nothing about the shard's cells, so it must
// not fail the shard, whose recorded errors are deterministic; it writes
// nothing, the lease expires, the shard is re-leased at a higher epoch,
// and the job finishes bit-identical to single-node.
func TestWorkerJobReadFailureReclaimed(t *testing.T) {
	ts := testJobSpec{Seed: 74}
	want, err := cvcp.Select(context.Background(), testSelectionSpec(ts))
	if err != nil {
		t.Fatal(err)
	}
	mem := store.NewMemory()
	defer mem.Close()
	jobID, plan := publishJob(t, mem, ts)
	faulty := storetest.Wrap(mem)
	// A worker's first Get is its read of the job record, while it
	// processes the first shard it acquired: shard 0.
	faulty.FailCalls(storetest.OpGet, errInjected, 1)
	wlog := &writeLog{Store: faulty}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	reclaimsBefore := mShardReclaims.Value()
	startWorker(ctx, &wg, wlog, "w0")

	coord := &Coordinator{Store: mem, Poll: 3 * time.Millisecond}
	scores, err := coord.RunJob(ctx, jobID, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.Finalize(context.Background(), scores, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, want, got, "post-read-failure vs single-node")

	cancel()
	wg.Wait()
	// The failed read wrote nothing: shard 0's only write at epoch 1 is
	// the acquire, and the worker wrote no record but shard records.
	atFirstLease := 0
	for _, rec := range wlog.writes {
		st, err := decodeShardState(rec)
		if err != nil || !strings.HasPrefix(rec.ID, shardPrefix) {
			t.Errorf("worker wrote %s (status %q), not a shard record", rec.ID, rec.Status)
			continue
		}
		if rec.ID == ShardID(jobID, 0) && st.Epoch == 1 {
			atFirstLease++
		}
	}
	if atFirstLease != 1 {
		t.Errorf("worker wrote shard 0 %d times at epoch 1, want only its acquire", atFirstLease)
	}
	if d := mShardReclaims.Value() - reclaimsBefore; d < 1 {
		t.Errorf("no shard lease was reclaimed after the failed read (reclaim delta %d)", d)
	}
	requireNoDistRecords(t, mem, jobID)
}

// TestWorkerUnplannableJobFailsShard: a job the worker cannot plan — no
// job record, a record its resolver rejects, or a plan whose cell count
// differs from the shard record's — fails the shard with that error,
// because every worker would reach the same verdict.
func TestWorkerUnplannableJobFailsShard(t *testing.T) {
	ts := testJobSpec{Seed: 75}
	fewerFolds := testSelectionSpec(ts)
	fewerFolds.Options.NFolds = 4
	coordPlan, err := cvcp.PlanCells(fewerFolds)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		publish func(t *testing.T, s Store) string
		want    string
	}{
		{"no record", func(t *testing.T, s Store) string { return "job-000000002" }, "no record of job job-000000002"},
		{"resolver error", func(t *testing.T, s Store) string {
			if err := s.Put(store.Record{ID: "job-000000003", Status: "running", Spec: []byte(`"not a spec"`)}); err != nil {
				t.Fatal(err)
			}
			return "job-000000003"
		}, "resolving job job-000000003"},
		{"cell-count mismatch", func(t *testing.T, s Store) string {
			id, _ := publishJob(t, s, ts)
			return id
		}, fmt.Sprintf("plans 15 cells, shard record says %d", coordPlan.NumCells())},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mem := store.NewMemory()
			defer mem.Close()
			jobID := tc.publish(t, mem)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var wg sync.WaitGroup
			startWorker(ctx, &wg, mem, "w0")

			coord := &Coordinator{Store: mem, Poll: 3 * time.Millisecond}
			_, err := coord.RunJob(ctx, jobID, coordPlan, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("RunJob error = %v, want a shard failure naming %q", err, tc.want)
			}
			requireNoDistRecords(t, mem, jobID)
			cancel()
			wg.Wait()
		})
	}
}
