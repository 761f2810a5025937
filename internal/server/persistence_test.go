package server

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"cvcp/internal/constraints"
	corecvcp "cvcp/internal/cvcp"
	"cvcp/internal/dataset"
	"cvcp/internal/stats"
	"cvcp/internal/store"
)

func openFileStore(t *testing.T, dir string) *store.File {
	t.Helper()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// A job submitted (and finished) before a clean shutdown must be visible
// — with its result — after a restart on the same store directory; batch
// membership must be rebuilt too.
func TestRestartRecoversFinishedJobs(t *testing.T) {
	ds, _ := testDataset(t, 30)
	dir := t.TempDir()

	s1 := openFileStore(t, dir)
	m1 := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 2, Store: s1})
	j, err := m1.Submit(quickSpec(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, j); s != StatusDone {
		t.Fatalf("job finished as %s", s)
	}
	want := j.View()

	bview, err := m1.SubmitBatch([]BatchItem{
		{Spec: quickSpec(), Dataset: ds},
		{Spec: quickSpec(), Dataset: ds},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{bview.Jobs[0].ID, bview.Jobs[1].ID} {
		bj, err := m1.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, bj)
	}
	if err := m1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh manager over the same directory.
	s2 := openFileStore(t, dir)
	defer s2.Close()
	m2 := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 2, Store: s2})
	defer m2.Shutdown(context.Background())

	rj, err := m2.Get(want.ID)
	if err != nil {
		t.Fatalf("restarted manager lost job %s: %v", want.ID, err)
	}
	got := rj.View()
	if got.Status != StatusDone || got.Result == nil {
		t.Fatalf("restored job: status %s result %v", got.Status, got.Result)
	}
	if got.Result.BestParam != want.Result.BestParam || got.Result.BestScore != want.Result.BestScore {
		t.Fatalf("restored result (%d, %v) != original (%d, %v)",
			got.Result.BestParam, got.Result.BestScore, want.Result.BestParam, want.Result.BestScore)
	}
	if len(got.Result.FinalLabels) != len(want.Result.FinalLabels) {
		t.Fatalf("restored final labels: %d entries, want %d", len(got.Result.FinalLabels), len(want.Result.FinalLabels))
	}
	if got.Dataset != want.Dataset || got.Objects != want.Objects || got.Seed != want.Seed {
		t.Fatalf("restored identity %q/%d/%d, want %q/%d/%d",
			got.Dataset, got.Objects, got.Seed, want.Dataset, want.Objects, want.Seed)
	}
	if got.Finished == nil || !got.Finished.Equal(*want.Finished) {
		t.Fatalf("restored finish time %v, want %v", got.Finished, want.Finished)
	}

	// Listing still works, in submission order.
	views, _ := m2.ListPage("", 0)
	if len(views) != 3 || views[0].ID != want.ID {
		t.Fatalf("restarted listing = %d jobs, first %s", len(views), views[0].ID)
	}

	// Batch membership came back from the records' batch fields.
	rb, err := m2.GetBatch(bview.ID)
	if err != nil {
		t.Fatalf("restarted manager lost batch %s: %v", bview.ID, err)
	}
	if rb.Total != 2 || rb.Counts[StatusDone] != 2 || !rb.Done {
		t.Fatalf("restored batch: %+v", rb)
	}

	// New submissions resume the ID sequence past everything replayed.
	nj, err := m2.Submit(quickSpec(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if nj.ID() <= bview.Jobs[1].ID {
		t.Fatalf("new job ID %s does not continue past replayed %s", nj.ID(), bview.Jobs[1].ID)
	}
	waitTerminal(t, nj)
}

// gatedAlg wraps FOSC-OPTICSDend: the FIRST Cluster call across the
// process parks until release is closed; every later call passes straight
// through. It holds a job deterministically in the running state for the
// "kill a server mid-job" simulation, while still computing real
// selections afterwards.
type gatedAlg struct {
	started chan struct{}
	release chan struct{}
	first   *atomic.Bool
}

func newGatedAlg() gatedAlg {
	first := &atomic.Bool{}
	first.Store(true)
	return gatedAlg{started: make(chan struct{}), release: make(chan struct{}), first: first}
}

func (g gatedAlg) Name() string { return "gated" }

func (g gatedAlg) Cluster(ds *dataset.Dataset, train *constraints.Set, param int, seed int64) ([]int, error) {
	if g.first.CompareAndSwap(true, false) {
		close(g.started)
		<-g.release
	}
	return corecvcp.FOSCOpticsDend{}.Cluster(ds, train, param, seed)
}

// Kill a server mid-job: a second manager opened on the same store
// directory must list the finished job and re-queue the interrupted one,
// which then completes with exactly the selection the library computes
// for the same data and seed.
func TestRestartRequeuesInterruptedJob(t *testing.T) {
	ds, _ := testDataset(t, 30)
	dir := t.TempDir()
	alg := newGatedAlg()
	RegisterAlgorithm("gated-restart", alg, []int{3, 6})

	s1 := openFileStore(t, dir)
	m1 := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 2, Store: s1})

	done1, err := m1.Submit(quickSpec(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, done1); s != StatusDone {
		t.Fatalf("first job finished as %s", s)
	}

	spec := Spec{Algorithm: "gated-restart", Params: []int{3, 6}, NFolds: 2, Seed: 11, LabelFraction: 0.5}
	interrupted, err := m1.Submit(spec, ds)
	if err != nil {
		t.Fatal(err)
	}
	<-alg.started // the job is running and its "running" record is on disk

	// "Kill" the server: m1 is abandoned mid-job (its executor is parked
	// inside the algorithm, so it writes nothing more), and a fresh
	// manager starts over the same directory — exactly what a process
	// restart with the same -store-dir does.
	s2 := openFileStore(t, dir)
	m2 := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 2, Store: s2})

	rj, err := m2.Get(interrupted.ID())
	if err != nil {
		t.Fatalf("interrupted job not replayed: %v", err)
	}
	if s := waitTerminal(t, rj); s != StatusDone {
		t.Fatalf("re-queued job finished as %s (%s)", s, rj.View().Error)
	}
	// The finished job from before the crash is intact too.
	if fj, err := m2.Get(done1.ID()); err != nil || fj.Status() != StatusDone {
		t.Fatalf("pre-crash finished job: %v / %v", fj, err)
	}

	// The re-run must select exactly what the library selects for the
	// same data, seed and options: deterministic seeding plus a full-
	// precision CSV round-trip make the recovery bit-identical.
	r := stats.NewRand(11)
	idx := ds.SampleLabels(r, 0.5)
	lres, err := corecvcp.Select(context.Background(), corecvcp.Spec{
		Dataset:     ds,
		Grid:        corecvcp.Grid{{Algorithm: corecvcp.FOSCOpticsDend{}, Params: []int{3, 6}}},
		Supervision: corecvcp.Labels(idx),
		Options:     corecvcp.Options{NFolds: 2, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	sel := lres.Winner
	got := rj.View()
	if got.Result == nil || got.Result.BestParam != sel.Best.Param || got.Result.BestScore != sel.Best.Score {
		t.Fatalf("re-queued selection = %+v, library selected (%d, %v)", got.Result, sel.Best.Param, sel.Best.Score)
	}
	for i, l := range sel.FinalLabels {
		if got.Result.FinalLabels[i] != l {
			t.Fatalf("final label %d: recovered %d, library %d", i, got.Result.FinalLabels[i], l)
		}
	}

	// Orderly teardown of both managers (the test-only gate must open
	// before m1 can drain).
	m2.Shutdown(context.Background())
	s2.Close()
	close(alg.release)
	waitTerminal(t, interrupted)
	m1.Shutdown(context.Background())
	s1.Close()
}

// An evicted job's ID must never be re-issued after a restart, even when
// the evicted job held the highest ID in the store (the counter
// high-water mark record covers what the surviving records cannot prove).
func TestRestartDoesNotReuseEvictedIDs(t *testing.T) {
	ds, _ := testDataset(t, 30)
	alg := newBlockingAlg()
	RegisterAlgorithm("block-hwm", alg, []int{1})
	dir := t.TempDir()

	s1 := openFileStore(t, dir)
	m1 := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 1, RetainFinished: 1, QueueDepth: 8, Store: s1})
	spec := quickSpec()
	spec.Algorithm = "block-hwm"
	spec.Params = []int{1}
	running, err := m1.Submit(spec, ds) // job-000000001, parks the only executor
	if err != nil {
		t.Fatal(err)
	}
	<-alg.started
	j2, err := m1.Submit(quickSpec(), ds) // job-000000002, queued
	if err != nil {
		t.Fatal(err)
	}
	j3, err := m1.Submit(quickSpec(), ds) // job-000000003, queued
	if err != nil {
		t.Fatal(err)
	}
	// Cancel in reverse order: job-000000003 finishes first and is evicted
	// (RetainFinished 1) — the highest ID leaves the store.
	if _, err := m1.Cancel(j3.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Cancel(j2.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Get(j3.ID()); err == nil {
		t.Fatal("job-000000003 was not evicted")
	}

	// Crash-restart over the same directory.
	s2 := openFileStore(t, dir)
	m2 := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 1, RetainFinished: 4, Store: s2})
	nj, err := m2.Submit(quickSpec(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if nj.ID() != "job-000000004" {
		t.Fatalf("new job minted ID %s; evicted job-000000003 must not be reused (want job-000000004)", nj.ID())
	}

	// Teardown: the gate must open before either manager can drain (m2
	// re-queued the interrupted blocking job).
	close(alg.release)
	m1.Cancel(running.ID())
	m2.Shutdown(context.Background())
	s2.Close()
	m1.Shutdown(context.Background())
	s1.Close()
}

// A corrupt record must surface as a failed job, not vanish.
func TestRestartSurfacesCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	s1 := openFileStore(t, dir)
	// Valid JSON, wrong shape: the store accepts it, the manager cannot
	// decode it into a job spec.
	if err := s1.Put(store.Record{ID: "job-000007", Status: "running", Spec: []byte(`123`)}); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openFileStore(t, dir)
	defer s2.Close()
	m := NewManager(Config{Store: s2})
	defer m.Shutdown(context.Background())
	j, err := m.Get("job-000007")
	if err != nil {
		t.Fatalf("corrupt record dropped: %v", err)
	}
	if v := j.View(); v.Status != StatusFailed || v.Error == "" {
		t.Fatalf("corrupt record restored as %s (%q), want failed with an error", v.Status, v.Error)
	}
	// And the failure was written back, so the next restart agrees.
	rec, ok, err := s2.Get("job-000007")
	if err != nil || !ok || rec.Status != string(StatusFailed) {
		t.Fatalf("failed state not persisted: %+v ok=%v err=%v", rec, ok, err)
	}
}

// flakyStore fails exactly one Put (the nth), letting tests exercise
// mid-batch persistence failure and the rollback that follows.
type flakyStore struct {
	store.Store
	failOn int
	puts   int
}

func (f *flakyStore) Put(rec store.Record) error {
	f.puts++
	if f.puts == f.failOn {
		return errFlaky
	}
	return f.Store.Put(rec)
}

var errFlaky = errors.New("flaky store: injected Put failure")

// A persistence failure mid-batch must roll back the already-persisted
// members: nothing resident, nothing durable, and the manager still
// usable.
func TestBatchRollbackLeavesNoTrace(t *testing.T) {
	ds, _ := testDataset(t, 30)
	fs := &flakyStore{Store: store.NewMemory(), failOn: 3} // fail the 3rd job record
	m := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 2, Store: fs})
	defer m.Shutdown(context.Background())

	items := []BatchItem{
		{Spec: quickSpec(), Dataset: ds},
		{Spec: quickSpec(), Dataset: ds},
		{Spec: quickSpec(), Dataset: ds},
	}
	if _, err := m.SubmitBatch(items); !errors.Is(err, errFlaky) {
		t.Fatalf("SubmitBatch = %v, want the injected failure", err)
	}
	if n := m.Len(); n != 0 {
		t.Fatalf("%d jobs resident after rolled-back batch", n)
	}
	if n, _ := fs.Store.Len(); n != 0 {
		t.Fatalf("%d records durable after rolled-back batch", n)
	}
	if _, err := m.GetBatch("batch-000000001"); err == nil {
		t.Fatal("rolled-back batch is visible")
	}

	// The manager still works: the queue slots were released.
	j, err := m.Submit(quickSpec(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, j); s != StatusDone {
		t.Fatalf("post-rollback job finished as %s", s)
	}
}

// The counter high-water-mark record must not shorten or empty listing
// pages: a page of limit n contains n jobs whenever n more jobs exist.
func TestListPageFullDespiteMetaRecord(t *testing.T) {
	ds, _ := testDataset(t, 30)
	s := store.NewMemory()
	// Seed the reserved record exactly as an eviction would.
	if err := s.Put(store.Record{ID: "_meta", Status: "meta", Spec: []byte(`{"next_id":0}`)}); err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 2, Store: s})
	defer m.Shutdown(context.Background())

	for i := 0; i < 2; i++ {
		j, err := m.Submit(quickSpec(), ds)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
	}
	// The meta record sorts before every job ID; the first page must
	// still hold a full page of jobs.
	views, next := m.ListPage("", 1)
	if len(views) != 1 || views[0].ID != "job-000000001" {
		t.Fatalf("first page = %+v (next %q), want exactly job-000000001", views, next)
	}
	views, _ = m.ListPage(next, 0)
	if len(views) != 1 || views[0].ID != "job-000000002" {
		t.Fatalf("second page = %+v, want exactly job-000000002", views)
	}
}

// Eviction must delete the record from the store, not only from memory.
func TestEvictionDeletesFromStore(t *testing.T) {
	ds, _ := testDataset(t, 30)
	dir := t.TempDir()
	s := openFileStore(t, dir)
	defer s.Close()
	m := NewManager(Config{MaxRunningJobs: 1, RetainFinished: 1, WorkerBudget: 2, Store: s})
	defer m.Shutdown(context.Background())

	j1, err := m.Submit(quickSpec(), ds)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j1)
	j2, err := m.Submit(quickSpec(), ds)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j2)

	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := m.Get(j1.ID()); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job 1 never evicted")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, ok, _ := s.Get(j1.ID()); ok {
		t.Fatal("evicted job still in the store")
	}
	if _, ok, _ := s.Get(j2.ID()); !ok {
		t.Fatal("retained job missing from the store")
	}
}

// A failed submission must not leave an orphaned event log in the store:
// the queued event is appended before the record Put, and the consumed
// ID is never reused, so a leak here would be permanent.
func TestFailedSubmitLeavesNoEventLog(t *testing.T) {
	ds, _ := testDataset(t, 30)
	fs := &flakyStore{Store: store.NewMemory(), failOn: 1}
	m := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 2, Store: fs})
	defer m.Shutdown(context.Background())

	if _, err := m.Submit(quickSpec(), ds); !errors.Is(err, errFlaky) {
		t.Fatalf("Submit = %v, want the injected failure", err)
	}
	if evs, err := fs.Store.EventsSince("job-000000001", 0); err != nil || len(evs) != 0 {
		t.Fatalf("failed submission left %d orphaned events (err %v)", len(evs), err)
	}

	// Same for the batch member whose own Put fails.
	fs.failOn = fs.puts + 2 // fail the 2nd member's record write
	items := []BatchItem{{Spec: quickSpec(), Dataset: ds}, {Spec: quickSpec(), Dataset: ds}}
	if _, err := m.SubmitBatch(items); !errors.Is(err, errFlaky) {
		t.Fatalf("SubmitBatch = %v, want the injected failure", err)
	}
	for _, id := range []string{"job-000000002", "job-000000003"} {
		if evs, _ := fs.Store.EventsSince(id, 0); len(evs) != 0 {
			t.Fatalf("rolled-back batch left %d orphaned events for %s", len(evs), id)
		}
	}
}
