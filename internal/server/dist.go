package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	corecvcp "cvcp/internal/cvcp"
	"cvcp/internal/dataset"
	"cvcp/internal/dist"
	"cvcp/internal/runner"
	"cvcp/internal/store"
)

// distPlan reports whether the job can be distributed and returns its
// cell plan. Only partition-based scorers shard (validity indices score
// whole-dataset clusterings, not folds); a non-shardable job on a
// coordinator simply runs locally. cache, when non-nil, is the job's
// cell cache — machine-local, threaded into the plan's options so the
// plan's cells consult and populate it.
func distPlan(spec Spec, ds *dataset.Dataset, cache *runner.ScoreCache) (*corecvcp.CellPlan, error) {
	sel, err := buildSelectionSpec(spec, ds)
	if err != nil {
		return nil, err
	}
	sel.Options.CellCache = cache
	return corecvcp.PlanCells(sel)
}

// executeDistributed runs one claimed job through the dist coordinator:
// the grid is sharded into the shared store, workers plan the cells
// from the job's own record (which the executor persists as running
// before it calls runJob) and, for a dataset job, the dataset's row
// batches, and the merged per-cell scores finalize
// through the exact single-node reduction (CellPlan.Finalize), so the
// result — selection, fold scores and final labels — is bit-identical
// to Job.execute. Shard transitions publish as "shard" events and feed
// the job's regular progress counter at shard granularity.
func (m *Manager) executeDistributed(j *Job, ds dist.Store, plan *corecvcp.CellPlan) {
	cellsDone := 0
	var cells corecvcp.CellCounts
	onShard := func(ev dist.ShardEvent) {
		j.onShard(ev.Shard, ev.Shards, ev.Status, ev.Worker)
		if ev.Status == dist.ShardDone || ev.Status == dist.ShardFailed {
			cellsDone += ev.Hi - ev.Lo
			j.onProgress(cellsDone, plan.NumCells())
		}
		// Workers report how many of their shard's cells came from the
		// shared cell cache; the coordinator sums the split into the
		// result so distributed re-selections report the same
		// dirty/reused counters as single-node ones.
		if ev.Status == dist.ShardDone {
			cells.Computed += ev.Hi - ev.Lo - ev.Reused
			cells.Reused += ev.Reused
		}
	}
	coord := &dist.Coordinator{Store: ds, Poll: m.cfg.Poll}
	scores, err := coord.RunJob(j.ctx, j.id, plan, onShard)
	if err != nil {
		j.finish(nil, err)
		return
	}
	res, err := plan.Finalize(j.ctx, scores, m.cfg.WorkerBudget, m.limiter)
	if err == nil {
		res.Cells = cells
	}
	j.finish(res, err)
}

// runJob dispatches one claimed job: coordinators distribute every job
// whose store and scorer allow it, everything else (single role, a store
// without atomic updates, a validity-scored job) computes locally.
// Dataset-referencing jobs get their cell cache here — it persists cell
// scores under the dataset's record ID, so later re-selections (this
// process or the next one) reuse every clean fold's cells. The cache is
// machine-local: a cached score is bit-identical to the computation it
// replaced, so it never affects results.
func (m *Manager) runJob(j *Job) {
	var cache *runner.ScoreCache
	if j.spec.DatasetID != "" {
		cache = runner.NewScoreCache(store.NewCellCache(m.store, j.spec.DatasetID), 0)
	}
	if m.cfg.Role == RoleCoordinator {
		if ds, ok := m.store.(dist.Store); ok {
			if plan, err := distPlan(j.spec, j.ds, cache); err == nil {
				m.executeDistributed(j, ds, plan)
				return
			}
		}
	}
	j.execute(m.limiter, m.cfg.WorkerBudget, cache)
}

// WorkerConfig configures RunWorker, the worker-role counterpart of the
// Manager.
type WorkerConfig struct {
	// Store is the topology's shared store (store.OpenShared on the same
	// directory the coordinator serves from). It must support atomic
	// updates; both built-in stores do.
	Store store.Store
	// ID names this worker in shard leases and events. It must be unique
	// in the topology.
	ID string
	// Workers bounds the worker's own per-shard grid concurrency;
	// 0 means one per CPU. Purely machine-local — it never affects
	// scores.
	Workers int
	// LeaseTTL and Poll tune the lease protocol; zero values mean the
	// dist package defaults (10s, 100ms).
	LeaseTTL time.Duration
	Poll     time.Duration
}

// RunWorker runs the worker role: it leases grid shards from the shared
// store, computes their cells and writes the scores into the shard
// records, until ctx is done (which is the only way it returns). The
// worker rebuilds each job's selection spec from the job's record
// through the same buildSelectionSpec the coordinator used, so both
// sides plan identical grids over bit-identical datasets.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	ds, ok := cfg.Store.(dist.Store)
	if !ok {
		return fmt.Errorf("server: worker store does not support atomic updates")
	}
	w := &dist.Worker{
		Store:    ds,
		ID:       cfg.ID,
		Resolve:  resolvePlan(cfg.Store),
		Workers:  cfg.Workers,
		Limiter:  runner.NewLimiter(workerBudget(cfg.Workers)),
		LeaseTTL: cfg.LeaseTTL,
		Poll:     cfg.Poll,
	}
	return w.Run(ctx)
}

func workerBudget(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// resolvePlan returns the worker's dist.Worker.Resolve hook, bound to
// the worker's shared store: it decodes the job record the coordinator's
// manager persisted, rebuilds the job's rows — an inline job's from the
// record's CSV payload, a dataset job's pinned version from the
// dataset's records (storedSnapshot) — and builds the cell plan. Record
// decodes are strict: a field mismatch means the coordinator runs a
// different version of this code, and silently ignoring the difference
// could split scores across versions. Dataset-referencing jobs get a
// store-backed cell cache (the plan is cached per job by the worker, so
// the cache lives for all the worker's shards of that job): cells
// another process already scored are served from the shared store
// instead of recomputed, and the worker reports the split in its shard
// records.
func resolvePlan(s store.Store) func(store.Record) (*corecvcp.CellPlan, error) {
	return func(rec store.Record) (*corecvcp.CellPlan, error) {
		var sr specRecord
		if err := strictUnmarshal(rec.Spec, &sr); err != nil {
			return nil, fmt.Errorf("server: decoding spec of %s: %w", rec.ID, err)
		}
		if id := sr.Spec.DatasetID; id != "" {
			ds, err := storedSnapshot(s, id, sr.Spec.DatasetVersion)
			if err != nil {
				return nil, pinnedRowsError(sr.Spec, err)
			}
			return distPlan(sr.Spec, ds, runner.NewScoreCache(store.NewCellCache(s, id), 0))
		}
		var dr datasetRecord
		if err := strictUnmarshal(rec.Dataset, &dr); err != nil {
			return nil, fmt.Errorf("server: decoding dataset of %s: %w", rec.ID, err)
		}
		// ReadCSV of WriteCSV output is bit-identical (full float64
		// precision), so the worker scores the exact dataset the
		// coordinator plans over.
		ds, err := dataset.ReadCSV(sr.DatasetName, strings.NewReader(dr.CSV), dr.HasLabel)
		if err != nil {
			return nil, fmt.Errorf("server: rebuilding dataset of %s: %w", rec.ID, err)
		}
		return distPlan(sr.Spec, ds, nil)
	}
}

func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
