package main

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cvcp/internal/store"
)

// Store operations the decorator counts, in report order: the ones the
// per-layer metrics report. EventsSince and List pass straight through;
// Delete passes through and only notes deleted job records.
const (
	opPut = iota
	opGet
	opUpdate
	opAppendEvents
	numStoreOps
)

var storeOpNames = [numStoreOps]string{"put", "get", "update", "append_events"}

// timedStore decorates the store handed to the server and to the dist
// workers. It always counts the reported calls and notes terminal job
// records and job deletions, which tell the op loop when a job's
// trailing writes are done; while timing is on it also sums call
// durations and records one span per call under the current op. It
// never holds a lock across the wrapped call. Several decorators (one
// per shared-store handle) can feed one storeStats.
type timedStore struct {
	inner interface {
		store.Store
		store.Updater
	}
	stats *storeStats
}

// storeStats is what the decorators of one workload share: per-operation
// call counts and nanoseconds, the op the calls belong to, and the
// terminal job records and job deletions the op loop waits for before a
// calibration sample and before it reads the counts.
type storeStats struct {
	calls [numStoreOps]atomic.Int64
	nanos [numStoreOps]atomic.Int64

	timing atomic.Bool // sum durations and record spans
	tr     *tracer     // nil in untraced runs
	op     atomic.Int64
	parent atomic.Int64

	mu          sync.Mutex
	terminal    map[string]bool // job IDs whose terminal record was Put
	jobsDeleted int
}

func newStoreStats(tr *tracer) *storeStats {
	return &storeStats{tr: tr, terminal: map[string]bool{}}
}

// snapshot returns the per-operation call counts and milliseconds.
func (s *storeStats) snapshot() (calls, msec [numStoreOps]float64) {
	for i := range s.calls {
		calls[i] = float64(s.calls[i].Load())
		msec[i] = float64(s.nanos[i].Load()) / 1e6
	}
	return calls, msec
}

// quiet reports whether the job's terminal record has been Put and at
// least deletes job records have been deleted.
func (s *storeStats) quiet(jobID string, deletes int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.terminal[jobID] && s.jobsDeleted >= deletes
}

func (s *storeStats) observe(op int, start time.Time) {
	s.calls[op].Add(1)
	if !s.timing.Load() {
		return
	}
	end := time.Now()
	s.nanos[op].Add(end.Sub(start).Nanoseconds())
	if s.tr != nil {
		s.tr.add(int(s.op.Load()), s.parent.Load(), "store."+storeOpNames[op], start, end)
	}
}

func newTimedStore(inner interface {
	store.Store
	store.Updater
}, stats *storeStats) *timedStore {
	return &timedStore{inner: inner, stats: stats}
}

// Job records are the only ones named "job-…".
func terminalJob(rec store.Record) bool {
	return strings.HasPrefix(rec.ID, "job-") && terminalStatus(rec.Status)
}

func (t *timedStore) Put(rec store.Record) error {
	start := time.Now()
	err := t.inner.Put(rec)
	t.stats.observe(opPut, start)
	if err == nil && terminalJob(rec) {
		t.stats.mu.Lock()
		t.stats.terminal[rec.ID] = true
		t.stats.mu.Unlock()
	}
	return err
}

func (t *timedStore) Get(id string) (store.Record, bool, error) {
	start := time.Now()
	rec, ok, err := t.inner.Get(id)
	t.stats.observe(opGet, start)
	return rec, ok, err
}

func (t *timedStore) Update(id string, fn func(cur store.Record, ok bool) (store.Record, bool, error)) (store.Record, error) {
	start := time.Now()
	rec, err := t.inner.Update(id, fn)
	t.stats.observe(opUpdate, start)
	return rec, err
}

func (t *timedStore) List(cursor string, limit int) ([]store.Record, string, error) {
	return t.inner.List(cursor, limit)
}

func (t *timedStore) Delete(id string) error {
	err := t.inner.Delete(id)
	if err == nil && strings.HasPrefix(id, "job-") {
		t.stats.mu.Lock()
		t.stats.jobsDeleted++
		t.stats.mu.Unlock()
	}
	return err
}

func (t *timedStore) AppendEvents(id string, events []store.Event) error {
	start := time.Now()
	err := t.inner.AppendEvents(id, events)
	t.stats.observe(opAppendEvents, start)
	return err
}

func (t *timedStore) EventsSince(id string, afterSeq int) ([]store.Event, error) {
	return t.inner.EventsSince(id, afterSeq)
}

func (t *timedStore) Len() (int, error) { return t.inner.Len() }

func (t *timedStore) Close() error { return t.inner.Close() }
