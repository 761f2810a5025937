package server

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"cvcp/internal/constraints"
	"cvcp/internal/dataset"
)

// testDataset builds a small two-cluster labeled dataset and its CSV form.
func testDataset(t *testing.T, n int) (*dataset.Dataset, string) {
	t.Helper()
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		cl := i % 2
		base := float64(cl) * 10
		x[i] = []float64{base + 0.3*float64(i%7), base + 0.2*float64(i%5)}
		y[i] = cl
	}
	ds, err := dataset.New("test", x, y)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return ds, buf.String()
}

func quickSpec() Spec {
	return Spec{Algorithm: "fosc", Params: []int{3, 6}, NFolds: 2, Seed: 5, LabelFraction: 0.5}
}

func waitTerminal(t *testing.T, j *Job) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if s := j.Status(); s.Terminal() {
			return s
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal status (stuck at %s)", j.ID(), j.Status())
	return ""
}

// blockingAlg parks every Cluster call until release is closed, signalling
// started on the first call. It lets tests hold a job deterministically in
// the running state.
type blockingAlg struct {
	started chan struct{}
	release chan struct{}
	once    *sync.Once
}

func newBlockingAlg() blockingAlg {
	return blockingAlg{started: make(chan struct{}), release: make(chan struct{}), once: &sync.Once{}}
}

func (b blockingAlg) Name() string { return "blocking" }

func (b blockingAlg) Cluster(ds *dataset.Dataset, train *constraints.Set, param int, seed int64) ([]int, error) {
	b.once.Do(func() { close(b.started) })
	<-b.release
	return make([]int, ds.N()), nil
}

// sleepAlg sleeps per Cluster call, giving cancellation a window between
// grid cells.
type sleepAlg struct{ d time.Duration }

func (s sleepAlg) Name() string { return "sleepy" }

func (s sleepAlg) Cluster(ds *dataset.Dataset, train *constraints.Set, param int, seed int64) ([]int, error) {
	time.Sleep(s.d)
	return make([]int, ds.N()), nil
}

// A finished job lets go of its rows and its record payload, yet it is
// still listed and served with its dataset's name, size and result. So
// does a job cancelled while queued.
func TestFinishedJobReleasesRows(t *testing.T) {
	ds, _ := testDataset(t, 30)
	alg := newBlockingAlg()
	RegisterAlgorithm("block-release", alg, []int{1})
	m := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 2})
	defer m.Shutdown(context.Background())

	spec := quickSpec()
	spec.Algorithm = "block-release"
	spec.Params = []int{1}
	blocker, err := m.Submit(spec, ds)
	if err != nil {
		t.Fatal(err)
	}
	<-alg.started
	cancelled, err := m.Submit(quickSpec(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(cancelled.ID()); err != nil {
		t.Fatal(err)
	}
	done, err := m.Submit(quickSpec(), ds)
	if err != nil {
		t.Fatal(err)
	}
	close(alg.release)
	waitTerminal(t, blocker)
	if s := waitTerminal(t, done); s != StatusDone {
		t.Fatalf("job finished as %s", s)
	}

	views, _ := m.ListPage("", 0)
	listed := map[string]JobView{}
	for _, v := range views {
		listed[v.ID] = v
	}
	for _, j := range []*Job{done, cancelled} {
		j.mu.Lock()
		rows, blob := j.ds, j.dsBlob
		j.mu.Unlock()
		if rows != nil || blob != nil {
			t.Errorf("%s job %s still holds its rows (%v) or payload (%d bytes)", j.Status(), j.ID(), rows != nil, len(blob))
		}
		got, err := m.Get(j.ID())
		if err != nil {
			t.Fatal(err)
		}
		v, ok := listed[j.ID()]
		if !ok {
			t.Fatalf("job %s is not listed", j.ID())
		}
		if gv := got.View(); gv.Dataset != "test" || gv.Objects != 30 || v.Dataset != "test" || v.Objects != 30 {
			t.Errorf("job %s serves dataset %q/%d and lists %q/%d, want test/30", j.ID(), gv.Dataset, gv.Objects, v.Dataset, v.Objects)
		}
	}
	if v := done.View(); v.Result == nil || len(v.Result.FinalLabels) != 30 {
		t.Errorf("finished job serves result %+v, want 30 final labels", v.Result)
	}
}

func TestManagerLifecycleAndEviction(t *testing.T) {
	ds, _ := testDataset(t, 30)
	m := NewManager(Config{MaxRunningJobs: 1, RetainFinished: 1, WorkerBudget: 2})
	defer m.Shutdown(context.Background())

	j1, err := m.Submit(quickSpec(), ds)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m.Submit(quickSpec(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, j1); s != StatusDone {
		t.Fatalf("job 1 finished as %s, want done", s)
	}
	if s := waitTerminal(t, j2); s != StatusDone {
		t.Fatalf("job 2 finished as %s, want done", s)
	}
	if v := j1.View(); v.Result == nil || v.Result.BestParam == 0 {
		t.Fatalf("job 1 has no result: %+v", v)
	}

	// RetainFinished == 1: once job 2 retires, job 1 must be evicted.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := m.Get(j1.ID())
		if errors.Is(err, ErrNotFound) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job 1 was never evicted")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := m.Get(j2.ID()); err != nil {
		t.Fatalf("job 2 should survive eviction: %v", err)
	}
	if views, _ := m.ListPage("", 0); len(views) != 1 {
		t.Fatalf("ListPage returned %d jobs, want 1", len(views))
	}
}

// Submit runs SubmitBatch's sequence for one item without the batch: its
// job carries no batch ID and uses up none, so the first batch after it
// is still batch-000000001.
func TestSubmitMintsNoBatch(t *testing.T) {
	ds, _ := testDataset(t, 30)
	m := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 2})
	defer m.Shutdown(context.Background())

	j, err := m.Submit(quickSpec(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if b := j.Batch(); b != "" {
		t.Fatalf("submitted job carries batch %q", b)
	}
	bv, err := m.SubmitBatch([]BatchItem{{Spec: quickSpec(), Dataset: ds}})
	if err != nil {
		t.Fatal(err)
	}
	if bv.ID != "batch-000000001" || len(bv.Jobs) != 1 || bv.Jobs[0].Batch != bv.ID {
		t.Fatalf("first batch after a submission: %+v", bv)
	}
	if s := waitTerminal(t, j); s != StatusDone {
		t.Fatalf("submitted job finished as %s, want done", s)
	}
}

func TestManagerQueueFullAndQueuedCancel(t *testing.T) {
	ds, _ := testDataset(t, 30)
	alg := newBlockingAlg()
	RegisterAlgorithm("block-mgr", alg, []int{1})
	m := NewManager(Config{MaxRunningJobs: 1, QueueDepth: 1, WorkerBudget: 1})
	defer m.Shutdown(context.Background())

	spec := quickSpec()
	spec.Algorithm = "block-mgr"
	spec.Params = []int{1}
	running, err := m.Submit(spec, ds)
	if err != nil {
		t.Fatal(err)
	}
	<-alg.started // the executor is now inside the blocking job

	queued, err := m.Submit(quickSpec(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(quickSpec(), ds); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submission: err = %v, want ErrQueueFull", err)
	}

	// Cancelling the queued job finalizes it without ever running.
	if st, err := m.Cancel(queued.ID()); err != nil || st != StatusCancelled {
		t.Fatalf("cancel queued: status %s, err %v", st, err)
	}
	if v := queued.View(); v.Started != nil {
		t.Fatalf("cancelled-while-queued job reports a start time: %+v", v)
	}

	// Cancelling the running job: context first, then unblock the
	// algorithm; the engine stops claiming tasks and the job ends cancelled.
	if _, err := m.Cancel(running.ID()); err != nil {
		t.Fatal(err)
	}
	close(alg.release)
	if s := waitTerminal(t, running); s != StatusCancelled {
		t.Fatalf("running job finished as %s, want cancelled", s)
	}
}

func TestManagerDrain(t *testing.T) {
	ds, _ := testDataset(t, 30)
	alg := newBlockingAlg()
	RegisterAlgorithm("block-drain", alg, []int{1})
	m := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 1})

	spec := quickSpec()
	spec.Algorithm = "block-drain"
	spec.Params = []int{1}
	j, err := m.Submit(spec, ds)
	if err != nil {
		t.Fatal(err)
	}
	<-alg.started

	done := make(chan error, 1)
	go func() { done <- m.Shutdown(context.Background()) }()

	// Draining rejects new submissions.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := m.Submit(quickSpec(), ds)
		if errors.Is(err, ErrDraining) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Submit never returned ErrDraining")
		}
		time.Sleep(2 * time.Millisecond)
	}

	close(alg.release) // let the running job finish
	if err := <-done; err != nil {
		t.Fatalf("clean drain returned %v", err)
	}
	if s := j.Status(); s != StatusDone {
		t.Fatalf("drained job finished as %s, want done", s)
	}
}

func TestManagerDrainDeadlineForceCancels(t *testing.T) {
	ds, _ := testDataset(t, 30)
	RegisterAlgorithm("sleep-drain", sleepAlg{d: 20 * time.Millisecond}, []int{1})
	m := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 1})

	spec := quickSpec()
	spec.Algorithm = "sleep-drain"
	spec.Params = []int{1, 2, 3, 4, 5, 6, 7, 8}
	spec.NFolds = 5
	j, err := m.Submit(spec, ds)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	if s := j.Status(); s != StatusCancelled {
		t.Fatalf("force-cancelled job finished as %s, want cancelled", s)
	}
}

// TestManagerHammer exercises concurrent submissions, cancellations and
// listings; run it under -race.
func TestManagerHammer(t *testing.T) {
	ds, _ := testDataset(t, 24)
	m := NewManager(Config{MaxRunningJobs: 3, WorkerBudget: 4, QueueDepth: 128, RetainFinished: 256})
	defer m.Shutdown(context.Background())

	const submitters = 8
	var wg sync.WaitGroup
	jobs := make(chan *Job, submitters*2)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 2; k++ {
				spec := quickSpec()
				spec.Seed = int64(g*100 + k)
				j, err := m.Submit(spec, ds)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				jobs <- j
				if (g+k)%3 == 0 {
					m.Cancel(j.ID())
				}
				m.ListPage("", 0)
				m.Get(j.ID())
			}
		}(g)
	}
	wg.Wait()
	close(jobs)
	for j := range jobs {
		s := waitTerminal(t, j)
		if s != StatusDone && s != StatusCancelled {
			t.Fatalf("job %s finished as %s (%s)", j.ID(), s, j.View().Error)
		}
	}
}

// The limiter budget must bound total concurrency across jobs; this is a
// smoke check that two jobs sharing a budget of 1 still both complete.
func TestManagerSharedBudget(t *testing.T) {
	ds, _ := testDataset(t, 30)
	m := NewManager(Config{MaxRunningJobs: 2, WorkerBudget: 1})
	defer m.Shutdown(context.Background())
	var js []*Job
	for i := 0; i < 2; i++ {
		spec := quickSpec()
		spec.Seed = int64(i + 1)
		j, err := m.Submit(spec, ds)
		if err != nil {
			t.Fatal(err)
		}
		js = append(js, j)
	}
	for _, j := range js {
		if s := waitTerminal(t, j); s != StatusDone {
			t.Fatalf("job %s finished as %s: %s", j.ID(), s, j.View().Error)
		}
	}
}
