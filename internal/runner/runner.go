// Package runner is the concurrent execution engine for CVCP's
// fold×parameter grids and for the experiment harness built on top of them.
//
// CVCP scores every candidate parameter by n-fold cross-validation, an
// embarrassingly parallel params×folds grid of independent clustering runs.
// The engine schedules such grids onto a bounded worker pool with:
//
//   - deterministic results: every task owns a distinct output slot and a
//     seed derived from its grid position, never from scheduling order, so
//     results are bit-identical regardless of the worker count;
//   - context cancellation: an expensive selection can be abandoned
//     mid-grid, and the first task error cancels the remaining tasks;
//   - deterministic error reporting: when several tasks fail, the error of
//     the lowest task index is returned, independent of interleaving;
//   - progress reporting: an optional callback observes completed/total.
//
// The companion Cache type (cache.go) is the memoization layer the grid
// tasks share: single-flight, so concurrent tasks needing the same
// expensive intermediate (an OPTICS ordering, a pairwise-distance matrix)
// compute it once and everyone else blocks on that one computation. The
// selection engine keeps one process-wide Cache keyed by dataset, which
// outlives any single run.
package runner

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// Task is one unit of grid work. It must confine its writes to state no
// other task touches (e.g. its own result slot) and should return promptly
// once ctx is cancelled.
type Task func(ctx context.Context) error

// Options configures one engine run.
type Options struct {
	// Workers bounds the number of tasks executing concurrently.
	// 0 or negative means GOMAXPROCS.
	Workers int
	// Context cancels the run: no new task starts after it is done, and
	// the run returns ctx.Err() unless a task failed first. Nil means
	// context.Background().
	Context context.Context
	// OnProgress, when non-nil, is called after every completed task with
	// the number of finished tasks and the total. Calls are serialized and
	// monotone in done, but their interleaving with still-running tasks is
	// scheduling-dependent; do not derive results from it.
	OnProgress func(done, total int)
	// Limiter, when non-nil, is a global execution budget shared with other
	// runs: every task acquires one slot before executing and releases it
	// after, so the total number of tasks executing across all runs holding
	// the same Limiter never exceeds its capacity. Workers still bounds this
	// run's own concurrency; the Limiter bounds the sum.
	Limiter *Limiter
}

// Limiter is a counting semaphore bounding how many tasks execute at once
// across every engine run that shares it. A multi-tenant caller (e.g. a job
// server running several selections concurrently) creates one Limiter with
// its global worker budget and passes it to each run's Options; each run
// then competes for slots task-by-task instead of multiplying worker pools.
//
// Slots are held only for the duration of a single task, never across
// tasks, so runs sharing a Limiter cannot deadlock on it.
type Limiter struct {
	slots chan struct{}
}

// NewLimiter returns a Limiter with the given number of slots (minimum 1).
func NewLimiter(n int) *Limiter {
	if n < 1 {
		n = 1
	}
	return &Limiter{slots: make(chan struct{}, n)}
}

// Cap returns the number of slots.
func (l *Limiter) Cap() int { return cap(l.slots) }

// acquire blocks until a slot is free or ctx is done. The uncontended
// fast path observes a zero-length wait without reading the clock
// twice; only a blocked acquire pays for timestamps.
func (l *Limiter) acquire(ctx context.Context) error {
	select {
	case l.slots <- struct{}{}:
		mLimiterWait.Observe(0)
		mLimiterInUse.Inc()
		return nil
	default:
	}
	//cvcplint:ignore nondeterm limiter-wait histogram timing: observed, exported to /metrics, never fed into a score or seed
	start := time.Now()
	select {
	case l.slots <- struct{}{}:
		//cvcplint:ignore nondeterm limiter-wait histogram timing: observed, exported to /metrics, never fed into a score or seed
		mLimiterWait.Observe(time.Since(start).Seconds())
		mLimiterInUse.Inc()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (l *Limiter) release() {
	<-l.slots
	mLimiterInUse.Dec()
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) context() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// Run executes the tasks on the pool and waits for completion. It returns
// the error of the lowest-indexed failing task, or the context error when
// the run was cancelled before all tasks finished.
func Run(opt Options, tasks []Task) error {
	n := len(tasks)
	if n == 0 {
		return opt.context().Err()
	}

	ctx := opt.context()
	workers := opt.workers()
	if workers > n {
		workers = n
	}

	// The run owns a derived context so the first task error stops the
	// remaining tasks without cancelling the caller's context.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next  int // index of the next unclaimed task, under mu
		done  int // completed tasks, under mu
		mu    sync.Mutex
		wg    sync.WaitGroup
		errs  = make([]error, n)
		fatal bool // a task failed; stop claiming, under mu
	)

	// Progress callbacks run on a dedicated goroutine fed by a buffered
	// channel (capacity n, so completions never block on it): a slow
	// callback — say, one writing to a stalled terminal — must not hold up
	// the workers. Sends happen under mu right after done increments, so
	// the reporter observes strictly increasing counts, and Run drains the
	// channel before returning so every callback lands before the caller
	// sees the result.
	var progCh chan int
	var progWg sync.WaitGroup
	if opt.OnProgress != nil {
		progCh = make(chan int, n)
		progWg.Add(1)
		go func() {
			defer progWg.Done()
			for d := range progCh {
				opt.OnProgress(d, n)
			}
		}()
	}

	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if fatal || next >= n {
			return -1
		}
		i := next
		next++
		return i
	}
	finish := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		errs[i] = err
		done++
		if err != nil && !fatal {
			fatal = true
			cancel()
		}
		if progCh != nil && err == nil {
			progCh <- done
		}
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				if opt.Limiter != nil {
					if opt.Limiter.acquire(ctx) != nil {
						return
					}
				}
				i := claim()
				if i < 0 {
					if opt.Limiter != nil {
						opt.Limiter.release()
					}
					return
				}
				err := tasks[i](ctx)
				if opt.Limiter != nil {
					opt.Limiter.release()
				}
				finish(i, err)
			}
		}()
	}
	wg.Wait()
	if progCh != nil {
		close(progCh)
		progWg.Wait()
	}

	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if done == n {
		// Every task completed; the grid is whole, so a caller context
		// that died after the last task finished does not discard it.
		return nil
	}
	// No task failed but the grid is incomplete: the caller's context was
	// cancelled mid-run.
	return opt.context().Err()
}

// Grid runs fn over every cell of a rows×cols grid (row-major), the shape of
// a parameters×folds cross-validation. fn receives the cell coordinates; the
// linear index row*cols+col is the deterministic task index used for error
// selection, so callers can also use it for per-cell seed derivation.
func Grid(opt Options, rows, cols int, fn func(ctx context.Context, row, col int) error) error {
	tasks := make([]Task, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			r, c := r, c
			tasks = append(tasks, func(ctx context.Context) error { return fn(ctx, r, c) })
		}
	}
	return Run(opt, tasks)
}
