package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cvcp/internal/constraints"
	"cvcp/internal/cvcp"
	"cvcp/internal/dataset"
	"cvcp/internal/stats"
	"cvcp/internal/store"
	"cvcp/internal/store/storetest"
)

// The test topology's job spec is a tiny JSON document ({"seed": N,
// "fail": bool}); testSelectionSpec expands it deterministically into a
// full cvcp.Spec, playing the role the server's spec decoding plays in
// production: any process expanding the same bytes gets the same grid,
// folds and seeds.
type testJobSpec struct {
	Seed int64 `json:"seed"`
	Fail bool  `json:"fail"`
}

func testBlobs(seed int64) *dataset.Dataset {
	r := stats.NewRand(seed)
	var x [][]float64
	var y []int
	for c := 0; c < 3; c++ {
		for i := 0; i < 15; i++ {
			x = append(x, []float64{15*float64(c) + r.NormFloat64(), r.NormFloat64()})
			y = append(y, c)
		}
	}
	return dataset.MustNew("blobs", x, y)
}

// failAlg fails deterministically for every parameter from from on and
// otherwise delegates to MPCKMeans.
type failAlg struct{ from int }

func (f failAlg) Name() string { return "failing" }

func (f failAlg) Cluster(ds *dataset.Dataset, train *constraints.Set, param int, seed int64) ([]int, error) {
	if param >= f.from {
		return nil, fmt.Errorf("synthetic failure for param %d", param)
	}
	return cvcp.MPCKMeans{}.Cluster(ds, train, param, seed)
}

func testSelectionSpec(ts testJobSpec) cvcp.Spec {
	ds := testBlobs(ts.Seed)
	labeled := ds.SampleLabels(stats.NewRand(ts.Seed+1), 0.4)
	var alg cvcp.Algorithm = cvcp.MPCKMeans{}
	if ts.Fail {
		alg = failAlg{from: 3} // parameters 3 and 4: shards 1 and 2 fail
	}
	return cvcp.Spec{
		Dataset:     ds,
		Grid:        cvcp.Grid{{Algorithm: alg, Params: []int{2, 3, 4}}},
		Supervision: cvcp.Labels(labeled),
		Options:     cvcp.Options{Seed: ts.Seed, NFolds: 5},
	}
}

func testResolve(job store.Record) (*cvcp.CellPlan, error) {
	var ts testJobSpec
	if err := json.Unmarshal(job.Spec, &ts); err != nil {
		return nil, err
	}
	return cvcp.PlanCells(testSelectionSpec(ts))
}

// publishJob writes the job record workers plan from into s, as the
// server's manager persists a job before distributing it, and returns
// the job's ID and cell plan.
func publishJob(t *testing.T, s Store, ts testJobSpec) (string, *cvcp.CellPlan) {
	t.Helper()
	plan, err := cvcp.PlanCells(testSelectionSpec(ts))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(ts)
	if err != nil {
		t.Fatal(err)
	}
	const id = "job-000000001"
	if err := s.Put(store.Record{ID: id, Status: "running", Spec: raw}); err != nil {
		t.Fatal(err)
	}
	return id, plan
}

// waitPublished waits until the coordinator has published the shard
// record id.
func waitPublished(t *testing.T, s Store, id string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok, err := s.Get(id); err == nil && ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never published", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func startWorker(ctx context.Context, wg *sync.WaitGroup, s Store, id string) {
	w := &Worker{
		Store:    s,
		ID:       id,
		Resolve:  testResolve,
		Workers:  2,
		LeaseTTL: 200 * time.Millisecond,
		Poll:     3 * time.Millisecond,
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.Run(ctx)
	}()
}

// equalResults asserts two selection results agree bit-for-bit: every
// score compared by IEEE-754 bits, every labeling exactly.
func equalResults(t *testing.T, want, got *cvcp.Result, what string) {
	t.Helper()
	if len(want.PerCandidate) != len(got.PerCandidate) {
		t.Fatalf("%s: %d candidates, want %d", what, len(got.PerCandidate), len(want.PerCandidate))
	}
	for ci := range want.PerCandidate {
		a, b := want.PerCandidate[ci], got.PerCandidate[ci]
		if a.Algorithm != b.Algorithm || a.Best.Param != b.Best.Param {
			t.Errorf("%s: candidate %d: (%s, %d) vs (%s, %d)", what, ci, a.Algorithm, a.Best.Param, b.Algorithm, b.Best.Param)
		}
		if math.Float64bits(a.Best.Score) != math.Float64bits(b.Best.Score) {
			t.Errorf("%s: candidate %d best score bits differ", what, ci)
		}
		for pi := range a.Scores {
			if math.Float64bits(a.Scores[pi].Score) != math.Float64bits(b.Scores[pi].Score) {
				t.Errorf("%s: candidate %d param %d score bits differ", what, ci, pi)
			}
			for fi := range a.Scores[pi].FoldScores {
				if math.Float64bits(a.Scores[pi].FoldScores[fi]) != math.Float64bits(b.Scores[pi].FoldScores[fi]) {
					t.Errorf("%s: candidate %d cell (%d, %d) fold-score bits differ", what, ci, pi, fi)
				}
			}
		}
		if !reflect.DeepEqual(a.FinalLabels, b.FinalLabels) {
			t.Errorf("%s: candidate %d final labels differ", what, ci)
		}
	}
	if math.Float64bits(want.Winner.Best.Score) != math.Float64bits(got.Winner.Best.Score) {
		t.Errorf("%s: winner score bits differ", what)
	}
}

func requireNoDistRecords(t *testing.T, s Store, jobID string) {
	t.Helper()
	recs, _, err := s.List("", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, prefix := range []string{"grid-" + jobID, "shard-" + jobID, "part-" + jobID} {
		var ids []string
		for _, rec := range recs {
			if strings.HasPrefix(rec.ID, prefix) {
				ids = append(ids, rec.ID)
			}
		}
		if len(ids) > 0 {
			t.Errorf("%s records left behind: %v", prefix, ids)
		}
	}
}

// TestDistributedMatchesSingleNode is the headline golden test: a
// coordinator plus N workers over a shared store must produce a result
// bit-identical to single-node Select — same fold-score bits, same
// winning parameters, same final labels — for N of 1 and 4, over both
// the in-memory store and the multi-process shared store.
func TestDistributedMatchesSingleNode(t *testing.T) {
	ts := testJobSpec{Seed: 61}
	want, err := cvcp.Select(context.Background(), testSelectionSpec(ts))
	if err != nil {
		t.Fatal(err)
	}
	stores := []struct {
		name string
		open func(t *testing.T) (coord Store, worker func(i int) Store)
	}{
		{"memory", func(t *testing.T) (Store, func(int) Store) {
			m := store.NewMemory()
			t.Cleanup(func() { m.Close() })
			return m, func(int) Store { return m }
		}},
		{"shared", func(t *testing.T) (Store, func(int) Store) {
			dir := t.TempDir()
			cs, err := store.OpenShared(dir)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cs.Close() })
			return cs, func(i int) Store {
				ws, err := store.OpenShared(dir)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { ws.Close() })
				return ws
			}
		}},
	}
	for _, sc := range stores {
		for _, n := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", sc.name, n), func(t *testing.T) {
				cs, workerStore := sc.open(t)
				jobID, plan := publishJob(t, cs, ts)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var wg sync.WaitGroup
				for i := 0; i < n; i++ {
					startWorker(ctx, &wg, workerStore(i), fmt.Sprintf("w%d", i))
				}

				var mu sync.Mutex
				var events []ShardEvent
				coord := &Coordinator{Store: cs, Poll: 3 * time.Millisecond}
				scores, err := coord.RunJob(ctx, jobID, plan, func(ev ShardEvent) {
					mu.Lock()
					events = append(events, ev)
					mu.Unlock()
				})
				if err != nil {
					t.Fatal(err)
				}
				got, err := plan.Finalize(context.Background(), scores, 2, nil)
				if err != nil {
					t.Fatal(err)
				}
				equalResults(t, want, got, "distributed vs single-node")

				shards := len(planShards(plan.NumCells(), plan.NumFolds()))
				done := 0
				for _, ev := range events {
					if ev.Shards != shards {
						t.Errorf("event reports %d shards, want %d", ev.Shards, shards)
					}
					if ev.Status == ShardDone {
						done++
					}
				}
				if done != shards {
					t.Errorf("%d done events, want %d", done, shards)
				}
				requireNoDistRecords(t, cs, jobID)
				cancel()
				wg.Wait()
			})
		}
	}
}

// TestLeaseReclaimAfterWorkerDeath simulates a kill -9: a "worker"
// acquires a shard's lease and vanishes without heartbeating. A live
// worker must wait out the lease TTL, reclaim the shard at a higher
// epoch, recompute it, and the job must still finish bit-identical to
// single-node.
func TestLeaseReclaimAfterWorkerDeath(t *testing.T) {
	ts := testJobSpec{Seed: 62}
	want, err := cvcp.Select(context.Background(), testSelectionSpec(ts))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cs, err := store.OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	jobID, plan := publishJob(t, cs, ts)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type runResult struct {
		scores []float64
		err    error
	}
	resCh := make(chan runResult, 1)
	var mu sync.Mutex
	var events []ShardEvent
	coord := &Coordinator{Store: cs, Poll: 3 * time.Millisecond}
	go func() {
		scores, err := coord.RunJob(ctx, jobID, plan, func(ev ShardEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		})
		resCh <- runResult{scores, err}
	}()

	// Wait for shard 0 to be published, then grab its lease as a worker
	// that will never heartbeat or finish — the crashed process.
	deadStore, err := store.OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer deadStore.Close()
	dead := &Worker{Store: deadStore, ID: "dead", LeaseTTL: 150 * time.Millisecond}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, ok := dead.tryAcquire(ShardID(jobID, 0)); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shard 0 never became acquirable")
		}
		time.Sleep(2 * time.Millisecond)
	}

	liveStore, err := store.OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer liveStore.Close()
	var wg sync.WaitGroup
	startWorker(ctx, &wg, liveStore, "live")

	res := <-resCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	got, err := plan.Finalize(context.Background(), res.scores, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, want, got, "post-reclaim vs single-node")

	// The dead worker's shard must have been completed by the live one.
	mu.Lock()
	defer mu.Unlock()
	reclaimed := false
	for _, ev := range events {
		if ev.Shard == 0 && ev.Status == ShardDone && ev.Worker == "live" {
			reclaimed = true
		}
		if ev.Status == ShardDone && ev.Worker == "dead" {
			t.Errorf("dead worker reported finishing shard %d", ev.Shard)
		}
	}
	if !reclaimed {
		t.Error("shard 0 was not completed by the live worker after the lease expired")
	}
	cancel()
	wg.Wait()
}

// TestStaleWorkerWritesNothing: a worker whose lease expired and was
// reclaimed, and which then finishes — here with scores that differ from
// the reclaimer's — must write nothing. The reclaimer's done record stays
// as it was, and the job's result is the reclaimer's, bit-identical to
// single-node Select. The coordinator's reads wait until the stale
// worker has finished, so it sees only what that finish left.
func TestStaleWorkerWritesNothing(t *testing.T) {
	ts := testJobSpec{Seed: 66}
	want, err := cvcp.Select(context.Background(), testSelectionSpec(ts))
	if err != nil {
		t.Fatal(err)
	}
	mem := store.NewMemory()
	defer mem.Close()
	jobID, plan := publishJob(t, mem, ts)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gate := make(chan struct{})
	gated := storetest.Wrap(mem)
	gated.Hook(storetest.OpGet, func(int, string) error {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return nil
	})
	type runResult struct {
		scores []float64
		err    error
	}
	resCh := make(chan runResult, 1)
	var mu sync.Mutex
	var events []ShardEvent
	coord := &Coordinator{Store: gated, Poll: 3 * time.Millisecond}
	go func() {
		scores, err := coord.RunJob(ctx, jobID, plan, func(ev ShardEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		})
		resCh <- runResult{scores, err}
	}()

	id := ShardID(jobID, 0)
	waitPublished(t, mem, id)
	stale := &Worker{Store: mem, ID: "stale", LeaseTTL: time.Millisecond}
	staleSt, staleEpoch, ok := stale.tryAcquire(id)
	if !ok {
		t.Fatal("stale worker could not acquire shard 0")
	}
	time.Sleep(5 * time.Millisecond) // the stale lease expires
	reclaimer := &Worker{Store: mem, ID: "reclaimer", Resolve: testResolve, Workers: 2}
	st, epoch, ok := reclaimer.tryAcquire(id)
	if !ok || epoch != staleEpoch+1 {
		t.Fatalf("reclaim: acquired %v at epoch %d, want epoch %d", ok, epoch, staleEpoch+1)
	}
	reclaimer.process(ctx, st, epoch)

	before, _, err := mem.List("", 0)
	if err != nil {
		t.Fatal(err)
	}
	scores := make([]float64, staleSt.Hi-staleSt.Lo)
	for i := range scores {
		scores[i] = -1 // a constraint F-measure is never negative
	}
	stale.finish(staleSt, staleEpoch, scores, 0, nil)
	after, _, err := mem.List("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Errorf("the stale worker's finish changed the store:\nbefore:%s\nafter:%s", describe(before), describe(after))
	}

	close(gate)
	var wg sync.WaitGroup
	startWorker(ctx, &wg, mem, "w1") // the remaining shards
	res := <-resCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	got, err := plan.Finalize(context.Background(), res.scores, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, want, got, "after a stale finish vs single-node")
	mu.Lock()
	for _, ev := range events {
		if ev.Shard == 0 && ev.Status == ShardDone && ev.Worker != "reclaimer" {
			t.Errorf("shard 0 reported done by %q, want the reclaimer", ev.Worker)
		}
	}
	mu.Unlock()
	cancel()
	wg.Wait()
}

// describe renders store records for a failure message.
func describe(recs []store.Record) string {
	var b strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&b, "\n  %s %s spec=%s result=%s", r.ID, r.Status, r.Spec, r.Result)
	}
	return b.String()
}

// TestCoordinatorCancelCleansUp: cancelling the job's context must abort
// RunJob and leave no distribution records behind, so workers stop
// finding work and their heartbeats abort in-flight shards.
func TestCoordinatorCancelCleansUp(t *testing.T) {
	ts := testJobSpec{Seed: 63}
	m := store.NewMemory()
	defer m.Close()
	jobID, plan := publishJob(t, m, ts)

	ctx, cancel := context.WithCancel(context.Background())
	coord := &Coordinator{Store: m, Poll: 3 * time.Millisecond}
	done := make(chan error, 1)
	go func() {
		_, err := coord.RunJob(ctx, jobID, plan, nil)
		done <- err
	}()
	// Let the shards get published (no workers exist, so nothing
	// completes), then cancel.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok, _ := m.Get(ShardID(jobID, 0)); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shards never published")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("RunJob returned %v, want context.Canceled", err)
	}
	requireNoDistRecords(t, m, jobID)
}

// TestShardFailurePropagates: a deterministic cell failure must surface
// as the job's error, carrying the failing shard's identity, and the
// lowest-indexed failing shard must win when several fail — here shards
// 1 and 2, whose columns are the failing parameters 3 and 4.
func TestShardFailurePropagates(t *testing.T) {
	ts := testJobSpec{Seed: 64, Fail: true}
	m := store.NewMemory()
	defer m.Close()
	jobID, plan := publishJob(t, m, ts)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	startWorker(ctx, &wg, m, "w0")

	var failed []int
	coord := &Coordinator{Store: m, Poll: 3 * time.Millisecond}
	_, err := coord.RunJob(ctx, jobID, plan, func(ev ShardEvent) {
		if ev.Status == ShardFailed {
			failed = append(failed, ev.Shard)
		}
	})
	if err == nil {
		t.Fatal("RunJob succeeded despite failing cells")
	}
	sort.Ints(failed)
	if fmt.Sprint(failed) != "[1 2]" {
		t.Errorf("failed shards %v, want [1 2]", failed)
	}
	if !strings.Contains(err.Error(), "synthetic failure for param 3") {
		t.Errorf("err = %v, want the synthetic cell failure of param 3", err)
	}
	if !strings.Contains(err.Error(), "shard 1 (cells [5, 10))") {
		t.Errorf("err = %v, want shard 1's identity in the message", err)
	}
	requireNoDistRecords(t, m, jobID)
	cancel()
	wg.Wait()
}

// TestShardsFinishOutOfOrder: one worker finishes the shards in
// descending index order, each only after the coordinator reported the
// previous one done. The done events arrive in that order, and the
// coordinator still assembles the scores in cell order, so Finalize is
// bit-identical to single-node Select.
func TestShardsFinishOutOfOrder(t *testing.T) {
	ts := testJobSpec{Seed: 65}
	want, err := cvcp.Select(context.Background(), testSelectionSpec(ts))
	if err != nil {
		t.Fatal(err)
	}
	m := store.NewMemory()
	defer m.Close()
	jobID, plan := publishJob(t, m, ts)
	shards := len(planShards(plan.NumCells(), plan.NumFolds()))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := make(chan ShardEvent, 2*shards) // one leased and one done per shard
	type runResult struct {
		scores []float64
		err    error
	}
	resCh := make(chan runResult, 1)
	coord := &Coordinator{Store: m, Poll: 3 * time.Millisecond}
	go func() {
		scores, err := coord.RunJob(ctx, jobID, plan, func(ev ShardEvent) { events <- ev })
		resCh <- runResult{scores, err}
	}()

	waitPublished(t, m, ShardID(jobID, shards-1))
	w := &Worker{Store: m, ID: "w0", Resolve: testResolve, Workers: 2}
	var order, wantOrder []int
	for i := shards - 1; i >= 0; i-- {
		st, epoch, ok := w.tryAcquire(ShardID(jobID, i))
		if !ok {
			t.Fatalf("shard %d was not acquirable", i)
		}
		w.process(ctx, st, epoch)
		wantOrder = append(wantOrder, i)
		for reported := false; !reported; {
			select {
			case ev := <-events:
				if ev.Status == ShardDone {
					order, reported = append(order, ev.Shard), true
				}
			case res := <-resCh:
				t.Fatalf("RunJob returned (err %v) before shard %d was reported done", res.err, i)
			}
		}
	}
	if fmt.Sprint(order) != fmt.Sprint(wantOrder) {
		t.Errorf("done events for shards %v, want %v", order, wantOrder)
	}
	res := <-resCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	got, err := plan.Finalize(context.Background(), res.scores, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, want, got, "out-of-order merge vs single-node")
	requireNoDistRecords(t, m, jobID)
}

// TestPlanShards: every shard holds whole (candidate, parameter)
// columns — one each, until that would exceed maxShards — and the
// shards are contiguous, cover [0, cells) and number at most maxShards.
func TestPlanShards(t *testing.T) {
	for _, tc := range []struct{ columns, folds, shards int }{
		{1, 10, 1},
		{8, 10, 8},
		{256, 5, 256},
		{257, 10, 129},
		{512, 2, 256},
	} {
		cells := tc.columns * tc.folds
		ranges := planShards(cells, tc.folds)
		if len(ranges) != tc.shards || len(ranges) > maxShards {
			t.Errorf("%d columns of %d folds: %d shards, want %d", tc.columns, tc.folds, len(ranges), tc.shards)
		}
		lo := 0
		for i, r := range ranges {
			if r[0] != lo || r[1] <= r[0] || r[0]%tc.folds != 0 || r[1]%tc.folds != 0 {
				t.Errorf("%d columns of %d folds: shard %d is [%d, %d) after %d", tc.columns, tc.folds, i, r[0], r[1], lo)
			}
			lo = r[1]
		}
		if lo != cells {
			t.Errorf("%d columns of %d folds: shards end at %d, want %d", tc.columns, tc.folds, lo, cells)
		}
	}
}

// TestScoreBitsRoundTrip: the IEEE-754 transport must preserve every
// bit pattern, including NaN payloads, infinities and signed zeros.
func TestScoreBitsRoundTrip(t *testing.T) {
	in := []float64{0, math.Copysign(0, -1), 1.5, -3.25e-300, math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8000000000123)}
	out := decodeScores(encodeScores(in))
	for i := range in {
		if math.Float64bits(in[i]) != math.Float64bits(out[i]) {
			t.Errorf("score %d: bits %016x -> %016x", i, math.Float64bits(in[i]), math.Float64bits(out[i]))
		}
	}
}
