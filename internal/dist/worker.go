package dist

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"cvcp/internal/cvcp"
	"cvcp/internal/runner"
	"cvcp/internal/store"
)

const defaultLeaseTTL = 10 * time.Second

// errJobRead marks a failed store read of a shard's job record. It says
// nothing about the shard's cells, so unlike a plan error it must not
// become the shard's deterministic failure.
var errJobRead = errors.New("dist: reading job record")

// Worker leases shards from the shared store and computes them. Run
// loops until its context is done; a topology runs one Worker per
// worker process (cvcpd -role=worker).
type Worker struct {
	// Store is the shared store of the topology.
	Store Store
	// ID names this worker in shard leases. It must be unique in the
	// topology (cvcpd derives it from hostname and PID).
	ID string
	// Resolve reconstructs a job's cell plan from the job's record — the
	// record stored under the job ID a shard names — and is the seam
	// that keeps this package ignorant of the spec format. It must be
	// deterministic: every worker resolving the same job record must
	// produce plans that score every cell bit-identically (the server's
	// resolver decodes its job-spec JSON and rebuilds the rows from the
	// record's CSV or the dataset's row batches, all of which round-trip
	// exactly).
	Resolve func(job store.Record) (*cvcp.CellPlan, error)
	// Workers bounds this worker's own engine parallelism per shard;
	// 0 means GOMAXPROCS. Purely local: it never affects scores.
	Workers int
	// Limiter, when non-nil, bounds this machine's total concurrent
	// cells across shards and any co-resident single-node jobs.
	Limiter *runner.Limiter
	// LeaseTTL is how long a lease lives without renewal; 0 means 10s.
	// The heartbeat renews at a third of this, so a worker must be
	// unresponsive for a full TTL before its shard is reclaimed.
	LeaseTTL time.Duration
	// Poll is the scan interval while no shard is available; 0 means
	// 100ms.
	Poll time.Duration

	mu    sync.Mutex
	plans map[string]*cvcp.CellPlan // resolved plans by job ID
}

func (w *Worker) leaseTTL() time.Duration {
	if w.LeaseTTL > 0 {
		return w.LeaseTTL
	}
	return defaultLeaseTTL
}

func (w *Worker) pollEvery() time.Duration {
	if w.Poll > 0 {
		return w.Poll
	}
	return defaultPoll
}

// Run scans for acquirable shards and computes them until ctx is done,
// which is the only way it returns (with ctx's error). Transient store
// and compute failures never stop the loop — failed shards are reported
// through their shard records, and a closed store only surfaces if it
// stays closed.
func (w *Worker) Run(ctx context.Context) error {
	for {
		worked, err := w.scanOnce(ctx)
		if err != nil && errors.Is(err, context.Canceled) && ctx.Err() != nil {
			return ctx.Err()
		}
		if worked {
			// Something was computed; rescan immediately — more shards
			// of the same job are likely waiting.
			if ctx.Err() != nil {
				return ctx.Err()
			}
			continue
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(w.pollEvery()):
		}
	}
}

// scanOnce pages through the shard records once, acquiring and computing
// every shard it can. It reports whether any shard was computed.
func (w *Worker) scanOnce(ctx context.Context) (bool, error) {
	worked := false
	cursor := shardPrefix
	for {
		if ctx.Err() != nil {
			return worked, ctx.Err()
		}
		recs, next, err := w.Store.List(cursor, 64)
		if err != nil {
			return worked, err
		}
		for _, rec := range recs {
			if !strings.HasPrefix(rec.ID, shardPrefix) {
				return worked, nil
			}
			if rec.Status == ShardDone {
				continue
			}
			st, epoch, ok := w.tryAcquire(rec.ID)
			if !ok {
				continue
			}
			w.process(ctx, st, epoch)
			worked = true
		}
		if next == "" {
			return worked, nil
		}
		cursor = next
	}
}

// tryAcquire attempts the lease CAS on one shard record: pending shards
// and expired leases are taken (epoch bumped); live leases and done
// shards are left alone. It returns the acquired state and lease epoch.
func (w *Worker) tryAcquire(id string) (ShardState, int, bool) {
	var got ShardState
	acquired := false
	_, err := w.Store.Update(id, func(cur store.Record, ok bool) (store.Record, bool, error) {
		acquired = false
		if !ok || cur.Status == ShardDone {
			return cur, false, nil
		}
		st, err := decodeShardState(cur)
		if err != nil {
			return cur, false, nil // foreign or corrupt record: not ours to touch
		}
		//cvcplint:ignore nondeterm lease-expiry check: wall-clock drives the lease protocol only, never a score or seed
		if cur.Status == ShardLeased && st.ExpiresUnixMilli > time.Now().UnixMilli() {
			return cur, false, nil
		}
		st.Owner = w.ID
		st.Epoch++
		//cvcplint:ignore nondeterm lease TTL stamp: wall-clock drives the lease protocol only, never a score or seed
		st.ExpiresUnixMilli = time.Now().Add(w.leaseTTL()).UnixMilli()
		rec, err := shardRecord(st, ShardLeased)
		if err != nil {
			return cur, false, err
		}
		got, acquired = st, true
		return rec, true, nil
	})
	if err != nil || !acquired {
		return ShardState{}, 0, false
	}
	if got.Epoch == 1 {
		mShardLeases.Inc()
	} else {
		mShardReclaims.Inc()
	}
	return got, got.Epoch, true
}

// process computes one acquired shard: resolve the plan, heartbeat the
// lease, score the cell range, and write the scores into the shard
// record as it is marked done. A lost lease (reclaimed, or the job's
// records deleted by cancellation) aborts the computation without
// writing anything; the done transition is epoch-guarded, so a stale
// worker can never clobber a reclaimer's result.
func (w *Worker) process(ctx context.Context, st ShardState, epoch int) {
	plan, err := w.plan(st)
	if errors.Is(err, errJobRead) {
		// Write nothing: the lease expires and whoever reclaims the
		// shard reads the job record again.
		return
	}
	if err != nil {
		w.finish(st, epoch, nil, 0, err)
		return
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeat(cctx, cancel, st, epoch)
	}()

	scores, counts, err := plan.ScoreRangeCounted(cctx, st.Lo, st.Hi, w.Workers, w.Limiter)
	aborted := cctx.Err() != nil // read before our own cancel below taints it
	cancel()
	<-hbDone
	if aborted && (err == nil || errors.Is(err, context.Canceled)) {
		// Lost lease or shutting down: whoever reclaims recomputes the
		// same bits; write nothing.
		return
	}
	w.finish(st, epoch, scores, counts.Reused, err)
}

// plan returns the cell plan of the shard's job, resolving it from the
// job record and caching it on first use. Plans are cached per job so a
// worker computing many shards of one job materializes folds once; the
// cache is invalidated when the job's shard records disappear (see gc).
// A failed read of the job record is reported as errJobRead.
func (w *Worker) plan(st ShardState) (*cvcp.CellPlan, error) {
	jobID := st.Job
	w.mu.Lock()
	if p, ok := w.plans[jobID]; ok {
		w.mu.Unlock()
		return p, nil
	}
	w.mu.Unlock()

	rec, ok, err := w.Store.Get(jobID)
	if err != nil {
		return nil, fmt.Errorf("%w %s: %w", errJobRead, jobID, err)
	}
	if !ok {
		return nil, fmt.Errorf("dist: no record of job %s", jobID)
	}
	if w.Resolve == nil {
		return nil, fmt.Errorf("dist: worker %s has no resolver", w.ID)
	}
	p, err := w.Resolve(rec)
	if err != nil {
		return nil, fmt.Errorf("dist: resolving job %s: %w", jobID, err)
	}
	if p.NumCells() != st.Cells {
		return nil, fmt.Errorf("dist: job %s plans %d cells, shard record says %d", jobID, p.NumCells(), st.Cells)
	}
	w.mu.Lock()
	if w.plans == nil {
		w.plans = make(map[string]*cvcp.CellPlan)
	}
	w.plans[jobID] = p
	n := len(w.plans)
	w.mu.Unlock()
	if n > 4 {
		w.gc()
	}
	return p, nil
}

// gc drops cached plans whose job has no shard 0 any more: the
// coordinator deletes every shard record as the job finishes or is
// cancelled. Plans hold the full dataset, so the cache is kept small.
func (w *Worker) gc() {
	w.mu.Lock()
	ids := make([]string, 0, len(w.plans))
	for id := range w.plans {
		ids = append(ids, id)
	}
	w.mu.Unlock()
	// Sorted so the store probes happen in the same order on every run
	// and every node — the shared store sees a deterministic read
	// sequence regardless of Go's map iteration order.
	sort.Strings(ids)
	for _, id := range ids {
		if _, ok, err := w.Store.Get(ShardID(id, 0)); err == nil && !ok {
			w.mu.Lock()
			delete(w.plans, id)
			w.mu.Unlock()
		}
	}
}

// heartbeat renews the lease at a third of its TTL until ctx is done.
// Losing the lease — the record vanished (cancellation) or another
// worker holds it (reclaim after expiry) — cancels the computation.
func (w *Worker) heartbeat(ctx context.Context, cancel context.CancelFunc, st ShardState, epoch int) {
	ticker := time.NewTicker(w.leaseTTL() / 3)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		held, err := w.transition(st, epoch, ShardLeased, func(s *ShardState) {
			//cvcplint:ignore nondeterm lease renewal stamp: wall-clock drives the lease protocol only, never a score or seed
			s.ExpiresUnixMilli = time.Now().Add(w.leaseTTL()).UnixMilli()
		})
		if !held {
			cancel()
			return
		}
		if err == nil {
			mHeartbeatRenewals.Inc()
		}
		// Transient store trouble: keep trying until the TTL decides.
	}
}

// finish writes the shard's scores (or its deterministic error) into
// the shard record and marks it done, in one transition guarded like a
// heartbeat. A failed write leaves the shard leased: the lease expires
// and a reclaimer recomputes it.
func (w *Worker) finish(st ShardState, epoch int, scores []float64, reused int, cerr error) {
	_, _ = w.transition(st, epoch, ShardDone, func(s *ShardState) {
		s.ExpiresUnixMilli = 0
		if cerr != nil {
			s.Error = cerr.Error()
			return
		}
		s.ScoreBits = encodeScores(scores)
		s.Reused = reused
	})
}

// transition is the compare-and-swap behind every write a worker makes
// to a shard it acquired: while the record is still leased to this
// worker at epoch, it applies change and writes the record with status.
// held is false only when the lease is gone (the record vanished or
// another acquisition replaced it); a store error leaves held true, as
// it says nothing about the lease.
func (w *Worker) transition(st ShardState, epoch int, status string, change func(*ShardState)) (held bool, err error) {
	held = true
	_, err = w.Store.Update(ShardID(st.Job, st.Index), func(cur store.Record, ok bool) (store.Record, bool, error) {
		held = false
		if !ok || cur.Status != ShardLeased {
			return cur, false, nil
		}
		s, err := decodeShardState(cur)
		if err != nil || s.Owner != w.ID || s.Epoch != epoch {
			return cur, false, nil
		}
		held = true
		change(&s)
		rec, err := shardRecord(s, status)
		if err != nil {
			return cur, false, err
		}
		return rec, true, nil
	})
	return held, err
}
