package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRunExecutesEveryTask(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			const n = 100
			out := make([]int, n)
			tasks := make([]Task, n)
			for i := range tasks {
				i := i
				tasks[i] = func(context.Context) error {
					out[i] = i * i
					return nil
				}
			}
			if err := Run(Options{Workers: workers}, tasks); err != nil {
				t.Fatal(err)
			}
			for i, v := range out {
				if v != i*i {
					t.Fatalf("slot %d = %d, want %d", i, v, i*i)
				}
			}
		})
	}
}

func TestRunEmpty(t *testing.T) {
	if err := Run(Options{}, nil); err != nil {
		t.Fatal(err)
	}
}

// The engine must report the error of the lowest-indexed failing task, no
// matter how the scheduler interleaves workers.
func TestRunDeterministicError(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			tasks := make([]Task, 40)
			for i := range tasks {
				i := i
				tasks[i] = func(context.Context) error {
					if i%7 == 3 { // fails at 3, 10, 17, ...
						return fmt.Errorf("task %d failed", i)
					}
					return nil
				}
			}
			err := Run(Options{Workers: workers}, tasks)
			if err == nil || err.Error() != "task 3 failed" {
				t.Fatalf("err = %v, want task 3's error", err)
			}
		})
	}
}

func TestRunErrorCancelsRemaining(t *testing.T) {
	const n = 200
	var started atomic.Int32
	boom := errors.New("boom")
	tasks := make([]Task, n)
	for i := range tasks {
		i := i
		tasks[i] = func(ctx context.Context) error {
			started.Add(1)
			if i == 0 {
				return boom
			}
			<-ctx.Done() // park until the engine cancels the run
			return nil
		}
	}
	if err := Run(Options{Workers: 4}, tasks); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := started.Load(); got >= n {
		t.Fatalf("all %d tasks started despite early failure", got)
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	tasks := make([]Task, 50)
	for i := range tasks {
		i := i
		tasks[i] = func(context.Context) error {
			ran.Add(1)
			if i == 2 {
				cancel() // caller gives up mid-grid
			}
			return nil
		}
	}
	err := Run(Options{Workers: 2, Context: ctx}, tasks)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got >= 50 {
		t.Fatal("cancellation did not stop the grid")
	}
}

func TestRunPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	task := Task(func(context.Context) error { ran.Add(1); return nil })
	err := Run(Options{Workers: 3, Context: ctx}, []Task{task, task, task})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatal("tasks ran on a dead context")
	}
}

func TestRunProgressMonotone(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			const n = 30
			tasks := make([]Task, n)
			for i := range tasks {
				tasks[i] = func(context.Context) error { return nil }
			}
			var mu sync.Mutex
			var calls []int
			err := Run(Options{
				Workers: workers,
				OnProgress: func(done, total int) {
					if total != n {
						t.Errorf("total = %d, want %d", total, n)
					}
					mu.Lock()
					calls = append(calls, done)
					mu.Unlock()
				},
			}, tasks)
			if err != nil {
				t.Fatal(err)
			}
			if len(calls) != n {
				t.Fatalf("%d progress calls, want %d", len(calls), n)
			}
			for i := 1; i < len(calls); i++ {
				if calls[i] <= calls[i-1] {
					t.Fatalf("progress not monotone: %v", calls)
				}
			}
			if calls[n-1] != n {
				t.Fatalf("final progress %d, want %d", calls[n-1], n)
			}
		})
	}
}

func TestGridCoordinates(t *testing.T) {
	const rows, cols = 5, 7
	seen := make([]bool, rows*cols)
	err := Grid(Options{Workers: 3}, rows, cols, func(_ context.Context, r, c int) error {
		seen[r*cols+c] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("cell %d never ran", i)
		}
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := NewCache(4)
	var computes atomic.Int32
	const goroutines = 64
	var wg sync.WaitGroup
	results := make([]any, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Do("owner", "key", func() (any, error) {
				computes.Add(1)
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[g] = v
		}()
	}
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("computed %d times, want 1", got)
	}
	for _, v := range results {
		if v != 42 {
			t.Fatalf("got %v, want 42", v)
		}
	}
}

// Hammer the cache from many goroutines across owners and keys; run under
// -race this doubles as the cache's race-detector coverage.
func TestCacheHammer(t *testing.T) {
	c := NewCache(3)
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				owner := fmt.Sprintf("ds%d", i%5)
				key := i % 7
				want := fmt.Sprintf("%s/%d", owner, key)
				v, err := c.Do(owner, key, func() (any, error) { return want, nil })
				if err != nil {
					t.Error(err)
					return
				}
				if v != want {
					t.Errorf("goroutine %d: got %v, want %v", g, v, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestCacheEvictsOldestOwner(t *testing.T) {
	c := NewCache(2)
	count := func(owner string) int {
		n := 0
		c.Do(owner, "k", func() (any, error) { n++; return nil, nil })
		return n
	}
	count("a")
	count("b")
	if got := count("a"); got != 0 {
		t.Fatal("a evicted too early")
	}
	count("c") // third owner: evicts a (oldest)
	if c.Owners() != 2 {
		t.Fatalf("owners = %d, want 2", c.Owners())
	}
	if got := count("a"); got != 1 {
		t.Fatal("a still cached after eviction")
	}
	// Re-adding a evicted b (the oldest of [b, c]); c must have survived.
	if got := count("c"); got != 0 {
		t.Fatal("c evicted although b was older")
	}
	if got := count("b"); got != 1 {
		t.Fatal("b still cached after re-adding a at capacity")
	}
}

func TestCacheCachesErrors(t *testing.T) {
	c := NewCache(2)
	boom := errors.New("boom")
	n := 0
	for i := 0; i < 3; i++ {
		_, err := c.Do("o", "k", func() (any, error) { n++; return nil, boom })
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
	}
	if n != 1 {
		t.Fatalf("computed %d times, want 1", n)
	}
}

func TestCacheFlush(t *testing.T) {
	c := NewCache(2)
	n := 0
	compute := func() (any, error) { n++; return nil, nil }
	c.Do("o", "k", compute)
	c.Flush()
	if c.Owners() != 0 {
		t.Fatal("owners after flush")
	}
	c.Do("o", "k", compute)
	if n != 2 {
		t.Fatalf("computed %d times, want 2 after flush", n)
	}
}

// A shared Limiter must bound the number of tasks executing at once across
// several concurrent Runs, while every task still completes.
func TestLimiterBoundsConcurrencyAcrossRuns(t *testing.T) {
	lim := NewLimiter(2)
	if lim.Cap() != 2 {
		t.Fatalf("Cap = %d, want 2", lim.Cap())
	}
	var cur, peak, total atomic.Int64
	task := func(context.Context) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		total.Add(1)
		cur.Add(-1)
		return nil
	}
	const runs, tasksPerRun = 3, 40
	var wg sync.WaitGroup
	for r := 0; r < runs; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tasks := make([]Task, tasksPerRun)
			for i := range tasks {
				tasks[i] = task
			}
			if err := Run(Options{Workers: 8, Limiter: lim}, tasks); err != nil {
				t.Errorf("Run: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := total.Load(); got != runs*tasksPerRun {
		t.Fatalf("executed %d tasks, want %d", got, runs*tasksPerRun)
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("peak concurrency %d exceeds the budget of 2", p)
	}
}

// A pool of one worker must honor the Limiter too, and a cancelled context
// must unblock a waiting acquire.
func TestLimiterSerialAndCancel(t *testing.T) {
	lim := NewLimiter(1)
	ran := 0
	err := Run(Options{Workers: 1, Limiter: lim}, []Task{
		func(context.Context) error { ran++; return nil },
		func(context.Context) error { ran++; return nil },
	})
	if err != nil || ran != 2 {
		t.Fatalf("one-worker limited run: err=%v ran=%d", err, ran)
	}

	// Occupy the only slot, then start a run that must block acquiring it;
	// cancelling the run's context has to release the workers.
	if err := lim.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- Run(Options{Workers: 2, Context: ctx, Limiter: lim},
			[]Task{func(context.Context) error { return nil }})
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked run returned %v, want context.Canceled", err)
	}
	lim.release()
}
