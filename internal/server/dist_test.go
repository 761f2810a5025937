package server

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	corecvcp "cvcp/internal/cvcp"
	"cvcp/internal/stats"
	"cvcp/internal/store"
)

func openSharedStore(t *testing.T, dir string) *store.Shared {
	t.Helper()
	s, err := store.OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// startServerWorker runs the worker role against its own shared-store
// handle on dir — a separate handle per worker, exactly as separate
// worker processes would have — and returns a stop function that waits
// for the worker to exit and closes its store.
func startServerWorker(t *testing.T, dir, id string) (stop func()) {
	t.Helper()
	ws := openSharedStore(t, dir)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = RunWorker(ctx, WorkerConfig{
			Store:    ws,
			ID:       id,
			Workers:  2,
			LeaseTTL: 300 * time.Millisecond,
			Poll:     3 * time.Millisecond,
		})
	}()
	return func() {
		cancel()
		wg.Wait()
		ws.Close()
	}
}

// distTestSpec is a cross-method, cross-validated job — distributable
// (partition scorer) with a multi-candidate grid, so shards span both
// algorithms.
func distTestSpec() Spec {
	return Spec{Algorithms: []string{"fosc", "mpck"}, Params: []int{3, 6}, NFolds: 2, Seed: 7, LabelFraction: 0.5}
}

func sameResultView(t *testing.T, got, want *ResultView) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("missing result: got %v want %v", got, want)
	}
	if got.Algorithm != want.Algorithm || got.BestParam != want.BestParam ||
		math.Float64bits(got.BestScore) != math.Float64bits(want.BestScore) {
		t.Fatalf("selection (%s, %d, %v) != (%s, %d, %v)",
			got.Algorithm, got.BestParam, got.BestScore, want.Algorithm, want.BestParam, want.BestScore)
	}
	if len(got.Scores) != len(want.Scores) {
		t.Fatalf("%d winner scores, want %d", len(got.Scores), len(want.Scores))
	}
	for i, s := range got.Scores {
		w := want.Scores[i]
		if s.Param != w.Param || math.Float64bits(s.Score) != math.Float64bits(w.Score) {
			t.Fatalf("score %d: (%d, %v) != (%d, %v)", i, s.Param, s.Score, w.Param, w.Score)
		}
		if len(s.FoldScores) != len(w.FoldScores) {
			t.Fatalf("score %d: %d fold scores, want %d", i, len(s.FoldScores), len(w.FoldScores))
		}
		for f, fs := range s.FoldScores {
			if math.Float64bits(fs) != math.Float64bits(w.FoldScores[f]) {
				t.Fatalf("score %d fold %d: %v != %v (bits differ)", i, f, fs, w.FoldScores[f])
			}
		}
	}
	if len(got.FinalLabels) != len(want.FinalLabels) {
		t.Fatalf("%d final labels, want %d", len(got.FinalLabels), len(want.FinalLabels))
	}
	for i, l := range got.FinalLabels {
		if l != want.FinalLabels[i] {
			t.Fatalf("final label %d: %d != %d", i, l, want.FinalLabels[i])
		}
	}
	if len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("%d candidates, want %d", len(got.Candidates), len(want.Candidates))
	}
	for i, c := range got.Candidates {
		w := want.Candidates[i]
		if c.Algorithm != w.Algorithm || c.BestParam != w.BestParam ||
			math.Float64bits(c.BestScore) != math.Float64bits(w.BestScore) {
			t.Fatalf("candidate %d: (%s, %d, %v) != (%s, %d, %v)",
				i, c.Algorithm, c.BestParam, c.BestScore, w.Algorithm, w.BestParam, w.BestScore)
		}
	}
}

// A coordinator with workers over a shared store must produce a result —
// selection, per-fold score bits, final labels — bit-identical to the
// same job on a single-node manager, and must emit shard events along
// the way and leave no distribution records behind.
func TestDistributedManagerMatchesSingleNode(t *testing.T) {
	ds, _ := testDataset(t, 40)
	spec := distTestSpec()

	// Single-node reference.
	single := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 2})
	sj, err := single.Submit(spec, ds)
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, sj); s != StatusDone {
		t.Fatalf("single-node job finished as %s (%s)", s, sj.View().Error)
	}
	want := sj.View().Result
	single.Shutdown(context.Background())

	for _, workers := range []int{1, 4} {
		t.Run(map[int]string{1: "one-worker", 4: "four-workers"}[workers], func(t *testing.T) {
			dir := t.TempDir()
			cs := openSharedStore(t, dir)
			defer cs.Close()
			m := NewManager(Config{
				MaxRunningJobs: 1, WorkerBudget: 2, Store: cs,
				Role: RoleCoordinator, Poll: 3 * time.Millisecond,
			})
			defer m.Shutdown(context.Background())
			for i := 0; i < workers; i++ {
				defer startServerWorker(t, dir, "w"+string(rune('0'+i)))()
			}

			j, err := m.Submit(spec, ds)
			if err != nil {
				t.Fatal(err)
			}
			if s := waitTerminal(t, j); s != StatusDone {
				t.Fatalf("distributed job finished as %s (%s)", s, j.View().Error)
			}
			sameResultView(t, j.View().Result, want)

			// Shard events reached the job's stream: every shard reported
			// done by a named worker.
			var shardDone int
			evs, _ := j.EventsSince(0)
			for _, ev := range evs {
				if ev.Type != "shard" {
					continue
				}
				if ev.Shards < 1 || ev.ShardStatus == "" {
					t.Fatalf("malformed shard event: %+v", ev)
				}
				if ev.ShardStatus == "done" {
					shardDone++
					if ev.Worker == "" {
						t.Fatalf("done shard event without worker: %+v", ev)
					}
				}
			}
			if shardDone == 0 {
				t.Fatal("no done shard events in the job's stream")
			}

			// The job's distribution records were cleaned up.
			recs, _, err := cs.List("", 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs {
				for _, prefix := range []string{"grid-", "shard-", "part-"} {
					if strings.HasPrefix(rec.ID, prefix) {
						t.Fatalf("leftover distribution record %s", rec.ID)
					}
				}
			}
		})
	}
}

// Kill a coordinator mid-distribution: a fresh coordinator on the same
// store directory must re-queue the interrupted job, sweep the stale
// shard records, redistribute, and finish with exactly the selection the
// library computes — the distributed mirror of
// TestRestartRequeuesInterruptedJob.
func TestCoordinatorRestartRedistributesInterruptedJob(t *testing.T) {
	ds, _ := testDataset(t, 40)
	spec := distTestSpec()
	dir := t.TempDir()

	s1 := openSharedStore(t, dir)
	m1 := NewManager(Config{
		MaxRunningJobs: 1, WorkerBudget: 2, Store: s1,
		Role: RoleCoordinator, Poll: 3 * time.Millisecond,
	})
	interrupted, err := m1.Submit(spec, ds)
	if err != nil {
		t.Fatal(err)
	}

	// No workers exist, so the job sits distributed-but-uncomputed. Wait
	// until its shard records are on disk (which also proves the
	// "running" job record was persisted first), then "kill" the
	// coordinator by closing its store handle out from under it — its
	// writes stop mid-job exactly as a killed process's would, leaving
	// the stale shard records behind.
	probe := openSharedStore(t, dir)
	defer probe.Close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		recs, _, err := probe.List("shard-", 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) > 0 && strings.HasPrefix(recs[0].ID, "shard-") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("coordinator never published shard records")
		}
		time.Sleep(2 * time.Millisecond)
	}
	s1.Close()

	// Restart: fresh store handle, fresh coordinator, plus a worker this
	// time. The replayed "running" record re-queues; redistribution
	// starts by sweeping the dead incarnation's records.
	s2 := openSharedStore(t, dir)
	defer s2.Close()
	m2 := NewManager(Config{
		MaxRunningJobs: 1, WorkerBudget: 2, Store: s2,
		Role: RoleCoordinator, Poll: 3 * time.Millisecond,
	})
	defer m2.Shutdown(context.Background())
	defer startServerWorker(t, dir, "restart-worker")()

	rj, err := m2.Get(interrupted.ID())
	if err != nil {
		t.Fatalf("interrupted job not replayed: %v", err)
	}
	if s := waitTerminal(t, rj); s != StatusDone {
		t.Fatalf("re-queued job finished as %s (%s)", s, rj.View().Error)
	}

	// Bit-identical to the library's own selection for the same inputs.
	r := stats.NewRand(spec.Seed)
	idx := ds.SampleLabels(r, spec.LabelFraction)
	lres, err := corecvcp.Select(context.Background(), corecvcp.Spec{
		Dataset: ds,
		Grid: corecvcp.Grid{
			{Algorithm: corecvcp.FOSCOpticsDend{}, Params: spec.Params},
			{Algorithm: corecvcp.MPCKMeans{}, Params: spec.Params},
		},
		Supervision: corecvcp.Labels(idx),
		Options:     corecvcp.Options{NFolds: spec.NFolds, Seed: spec.Seed},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := rj.View().Result
	sel := lres.Winner
	if got == nil || got.Algorithm != sel.Algorithm || got.BestParam != sel.Best.Param ||
		math.Float64bits(got.BestScore) != math.Float64bits(sel.Best.Score) {
		t.Fatalf("recovered selection %+v, library selected (%s, %d, %v)", got, sel.Algorithm, sel.Best.Param, sel.Best.Score)
	}
	for i, l := range sel.FinalLabels {
		if got.FinalLabels[i] != l {
			t.Fatalf("final label %d: recovered %d, library %d", i, got.FinalLabels[i], l)
		}
	}

	// The abandoned coordinator can be drained now; its store is closed,
	// so it finishes its job as failed without touching the shared state.
	waitTerminal(t, interrupted)
	m1.Shutdown(context.Background())
}

// A validity-scored job cannot shard (no folds to partition); a
// coordinator must fall back to computing it locally rather than failing
// it.
func TestCoordinatorFallsBackToLocalForValidityScorer(t *testing.T) {
	ds, _ := testDataset(t, 40)
	dir := t.TempDir()
	cs := openSharedStore(t, dir)
	defer cs.Close()
	m := NewManager(Config{
		MaxRunningJobs: 1, WorkerBudget: 2, Store: cs,
		Role: RoleCoordinator, Poll: 3 * time.Millisecond,
	})
	defer m.Shutdown(context.Background())
	// No workers at all: if this job were distributed it could never
	// finish.
	spec := Spec{Algorithm: "mpck", Params: []int{2, 3}, Seed: 5, Scorer: "silhouette", LabelFraction: 0.5}
	j, err := m.Submit(spec, ds)
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, j); s != StatusDone {
		t.Fatalf("validity job on a coordinator finished as %s (%s)", s, j.View().Error)
	}
	evs, _ := j.EventsSince(0)
	for _, ev := range evs {
		if ev.Type == "shard" {
			t.Fatalf("locally-computed job emitted a shard event: %+v", ev)
		}
	}
}

// The matrix32 option threads through spec validation, execution and the
// job view: valid only with a FOSC candidate, reported in the view, and
// the job completes.
func TestMatrix32Spec(t *testing.T) {
	ds, _ := testDataset(t, 30)

	if _, _, apiErr := finishSpec(Spec{Algorithm: "mpck", Params: []int{2, 3}, Matrix32: true, Seed: 1, LabelFraction: 0.5}, ds); apiErr == nil {
		t.Fatal("matrix32 without a fosc candidate was accepted")
	}
	spec, _, apiErr := finishSpec(Spec{Algorithm: "fosc", Params: []int{3, 6}, Matrix32: true, NFolds: 2, Seed: 5, LabelFraction: 0.5}, ds)
	if apiErr != nil {
		t.Fatalf("matrix32 with fosc rejected: %v", apiErr.Message)
	}
	if cross, _, apiErr := finishSpec(Spec{Algorithms: []string{"mpck", "fosc"}, Params: []int{3, 6}, Matrix32: true, NFolds: 2, Seed: 5, LabelFraction: 0.5}, ds); apiErr != nil || !cross.Matrix32 {
		t.Fatalf("matrix32 with fosc among algorithms rejected: %v", apiErr)
	}

	m := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 2})
	defer m.Shutdown(context.Background())
	j, err := m.Submit(spec, ds)
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, j); s != StatusDone {
		t.Fatalf("matrix32 job finished as %s (%s)", s, j.View().Error)
	}
	v := j.View()
	if !v.Matrix32 {
		t.Fatal("job view does not report matrix32")
	}
	if v.Result == nil || len(v.Result.FinalLabels) != ds.N() {
		t.Fatalf("matrix32 job result: %+v", v.Result)
	}
}
