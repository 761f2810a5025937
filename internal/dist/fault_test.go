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

// TestWorkerPartialPutFailureReclaimed: a worker that computes a shard
// but cannot write its partial must not mark the shard done; the lease
// expires, the shard is re-leased at a higher epoch and recomputed, and
// the job still finishes bit-identical to single-node. This is the
// crash-equivalence claim for the write path: losing a result write is
// indistinguishable from losing the worker.
func TestWorkerPartialPutFailureReclaimed(t *testing.T) {
	ts := testJobSpec{Seed: 73}
	want, err := cvcp.Select(context.Background(), testSelectionSpec(ts))
	if err != nil {
		t.Fatal(err)
	}
	mem := store.NewMemory()
	defer mem.Close()
	jobID, plan := publishJob(t, mem, ts)
	faulty := storetest.Wrap(mem)
	// A worker's only Puts are partials: losing the first one simulates
	// the write failing after the compute succeeded.
	faulty.FailCalls(storetest.OpPut, errInjected, 1)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	reclaimsBefore := mShardReclaims.Value()
	startWorker(ctx, &wg, faulty, "w0")

	coord := &Coordinator{Store: mem, Poll: 3 * time.Millisecond}
	scores, err := coord.RunJob(ctx, jobID, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.Finalize(context.Background(), scores, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, want, got, "post-put-failure vs single-node")

	if n := faulty.Calls(storetest.OpPut); n < 2 {
		t.Fatalf("worker issued %d partial Put(s); the injected failure was never retried", n)
	}
	// The lost shard had to be leased again at a higher epoch before its
	// recompute — visible as a reclaim in the worker's own accounting.
	if d := mShardReclaims.Value() - reclaimsBefore; d < 1 {
		t.Errorf("no shard lease was reclaimed after the lost partial (reclaim delta %d)", d)
	}
	requireNoDistRecords(t, mem, jobID)
	cancel()
	wg.Wait()
}

// TestWorkerJobReadFailureReclaimed: a worker whose read of the job
// record fails has learned nothing about the shard's cells, so it must
// not fail the shard, whose partial errors are deterministic; it writes
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
	// A worker's first Get is its read of the job record.
	faulty.FailCalls(storetest.OpGet, errInjected, 1)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	reclaimsBefore := mShardReclaims.Value()
	startWorker(ctx, &wg, faulty, "w0")

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

	// One partial Put per shard: the failed read wrote none.
	if n, shards := faulty.Calls(storetest.OpPut), len(planShards(plan.NumCells(), plan.NumFolds())); n != shards {
		t.Errorf("worker issued %d partial Put(s) for %d shards", n, shards)
	}
	if d := mShardReclaims.Value() - reclaimsBefore; d < 1 {
		t.Errorf("no shard lease was reclaimed after the failed read (reclaim delta %d)", d)
	}
	requireNoDistRecords(t, mem, jobID)
	cancel()
	wg.Wait()
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
