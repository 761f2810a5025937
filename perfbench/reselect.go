package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cvcp/internal/cvcp"
	"cvcp/internal/dataset"
	"cvcp/internal/runner"
	"cvcp/internal/server"
	"cvcp/internal/store"
)

// reselectWorkload is svc-reselect: one single-role server on a file
// store, reselectSets registered datasets that take turns growing by
// reselectAppend rows per op, and a dataset_id FOSC job per op that
// recomputes only the dirty folds' cells.
type reselectWorkload struct {
	seed    int64
	root    string // this run's directory; each set-up round gets its own store below it
	tr      *tracer
	tracing bool

	round   int
	dir     string
	st      *store.File
	stats   *storeStats
	node    *node
	cl      *client
	dsIDs   []string
	mirrors []*dataset.Versioned // the rows the server holds, for the checks and replays
	rep     replayer
	// repBase marks the datasets whose registered rows the replay's
	// cell cache holds.
	repBase []bool
	last    outcome // the last op's result, on dataset lastSet
	lastSet int
	ended   endedJobs
}

// jobSeed is the selection seed of every job on dataset set. It picks
// the supervision rows, and their count sets the cost of a re-selection
// (seeds 7 and 8 gave 30135 and 75855 refit constraints on one dataset),
// so each dataset draws its own.
func (w *reselectWorkload) jobSeed(set int) int64 { return opSeed(w.seed, -1000-set) }

func (w *reselectWorkload) jobRequest(set int) map[string]any {
	return map[string]any{"dataset_id": w.dsIDs[set], "algorithm": "fosc", "label_fraction": reselectFrac,
		"folds": libFolds, "seed": w.jobSeed(set)}
}

// setUp starts a fresh server, registers the base datasets and runs one
// warm job on each, which computes every cell.
func (w *reselectWorkload) setUp(ctx context.Context, round int, cal *calibrator) error {
	w.round = round
	w.dir = filepath.Join(w.root, fmt.Sprintf("svc-reselect-%d", round))
	if err := os.RemoveAll(w.dir); err != nil {
		return err
	}
	st, err := store.Open(w.dir)
	if err != nil {
		return err
	}
	w.st = st
	w.stats = newStoreStats(w.tr)
	w.ended = endedJobs{}
	cfg := server.Config{QueueDepth: svcQueueDepth, MaxRunningJobs: svcRunningJobs, WorkerBudget: svcWorkerBudget,
		RetainFinished: svcRetain, Store: newTimedStore(st, w.stats)}
	if w.node, err = startNode(cfg); err != nil {
		return err
	}
	w.cl = newClient(w.node.addr)
	if w.tracing {
		// The replay keeps its own cell cache, filled with a dataset's
		// registered rows' cells before the first op on it, so each
		// replay computes the cells its op did.
		w.rep = replayer{cache: runner.NewScoreCache(nil, 1<<16), seen: map[string]bool{}}
		w.repBase = make([]bool, reselectSets)
	}

	w.dsIDs, w.mirrors = nil, nil
	for set := 0; set < reselectSets; set++ {
		cal.sample()
		base := growthRows(w.seed, round, set, 0, reselectRows)
		csv, err := csvOf(base)
		if err != nil {
			return err
		}
		var dv struct {
			ID string `json:"id"`
		}
		if err := w.cl.postJSON(ctx, "/v1/datasets", map[string]any{"name": "growth", "has_label": true, "csv": csv}, &dv); err != nil {
			return err
		}
		w.dsIDs = append(w.dsIDs, dv.ID)
		m := dataset.NewVersioned("growth", true)
		if _, err := m.Append(base); err != nil {
			return err
		}
		w.mirrors = append(w.mirrors, m)
		v, err := w.cl.runJob(ctx, w.jobRequest(set))
		if err != nil {
			return err
		}
		if _, err := v.outcome(); err != nil {
			return fmt.Errorf("warm job: %w", err)
		}
		w.ended.add(v.ID)
		if err := w.ended.settle(ctx, w.stats); err != nil {
			return err
		}
	}
	return nil
}

func (w *reselectWorkload) settle(ctx context.Context) error { return w.ended.settle(ctx, w.stats) }

// spec is the library selection the server runs for a mirror's rows.
func (w *reselectWorkload) spec(set int) cvcp.Spec {
	return w.specAt(set, w.mirrors[set].Version())
}

// specAt is spec at one version of the mirror; version 1 holds the
// registered rows.
func (w *reselectWorkload) specAt(set, version int) cvcp.Spec {
	ds, _ := w.mirrors[set].Snapshot(version)
	return foscJobSpec(ds, cvcp.StableLabels(reselectFrac), w.jobSeed(set))
}

func (w *reselectWorkload) tearDown() {
	if w.node != nil {
		_ = w.node.stop()
		w.node = nil
	}
	if w.cl != nil {
		w.cl.hc.CloseIdleConnections()
	}
	if w.st != nil {
		_ = w.st.Close()
		w.st = nil
	}
	_ = os.RemoveAll(w.dir)
}

func (w *reselectWorkload) op(ctx context.Context, i int, o *opObs, counted map[string]float64) (time.Duration, error) {
	set, batch := i%reselectSets, 1+i/reselectSets
	rows := growthRows(w.seed, w.round, set, batch, reselectAppend)
	csv, err := csvOf(rows)
	if err != nil {
		return 0, err
	}
	var (
		before                   registry
		memBefore                memSample
		callsBefore, msBefore    [numStoreOps]float64
		appended, submitted, end time.Time
		events                   int
	)
	if counted != nil {
		before, memBefore = scrape(), readMem()
		callsBefore, msBefore = w.stats.snapshot()
	}
	if o != nil {
		w.stats.op.Store(int64(i))
		w.stats.parent.Store(o.root)
		w.stats.timing.Store(true)
	}
	start := time.Now()
	var dv struct {
		Rows int `json:"rows"`
	}
	err = w.cl.do(ctx, http.MethodPost, "/v1/datasets/"+w.dsIDs[set]+"/rows", "text/csv", []byte(csv), &dv)
	appended = time.Now()
	var id, status string
	if err == nil {
		id, err = w.cl.submitJob(ctx, w.jobRequest(set))
		submitted = time.Now()
	}
	if err == nil {
		status, end, err = w.cl.waitTerminal(ctx, id, func(sseEvent, time.Time) { events++ })
	}
	lat := time.Since(start)
	if err == nil {
		lat = end.Sub(start)
		w.ended.add(id)
	}
	w.stats.timing.Store(false)
	if err != nil {
		return lat, err
	}
	if _, err := w.mirrors[set].Append(rows); err != nil {
		return lat, err
	}
	if want := reselectRows + reselectAppend*batch; dv.Rows != want {
		return lat, fmt.Errorf("dataset has %d rows after the append, want %d", dv.Rows, want)
	}
	var v jobView
	if err := w.cl.do(ctx, http.MethodGet, "/v1/jobs/"+id, "", nil, &v); err != nil {
		return lat, err
	}
	got, err := v.outcome()
	if err != nil {
		return lat, fmt.Errorf("%w (terminal event %s)", err, status)
	}
	if err := checkView(got, cvcp.DefaultMinPtsRange, dv.Rows); err != nil {
		return lat, err
	}
	if c, r := v.Result.CellsComputed, v.Result.CellsReused; c != 16 || r != 64 {
		return lat, fmt.Errorf("job computed %d cells and reused %d, want 16 and 64", c, r)
	}
	w.last, w.lastSet = got, set

	if counted == nil {
		return lat, nil
	}
	// Every op of a traced run waits for the job's trailing writes, so
	// the store counts of op i are exactly op i's.
	if err := w.ended.settle(ctx, w.stats); err != nil {
		return lat, err
	}
	after, memAfter := scrape(), readMem()
	callsAfter, msAfter := w.stats.snapshot()
	counterDeltas(counted, o, before, after)
	memDeltas(counted, memBefore, memAfter)
	storeDeltas(counted, o, callsBefore, callsAfter, msBefore, msAfter)
	counted["server.events"] += float64(events)
	counted["store.wal_bytes"] += dirBytes(w.dir)

	if !w.repBase[set] {
		if err := w.rep.sync(ctx, w.specAt(set, 1)); err != nil {
			return lat, err
		}
		w.repBase[set] = true
	}
	spec := w.spec(set)
	if o == nil {
		return lat, w.rep.sync(ctx, spec)
	}
	o.add("server.append_ms", ms(appended.Sub(start)))
	o.add("server.submit_ms", ms(submitted.Sub(appended)))
	serverTimes(o, v, end)
	if err := datasetReplay(o, csv, w.mirrors[set]); err != nil {
		return lat, err
	}
	return lat, w.rep.replay(ctx, o, spec, &got)
}

// finish checks the last op against a from-scratch library selection
// over the same rows.
func (w *reselectWorkload) finish(ctx context.Context) error {
	res, err := cvcp.Select(ctx, w.spec(w.lastSet))
	if err != nil {
		return fmt.Errorf("library re-selection: %w", err)
	}
	if err := sameOutcome(w.last, outcomeOf(res)); err != nil {
		return fmt.Errorf("last op differs from a library Select over the same rows: %v", err)
	}
	return nil
}

// serverTimes adds the job's queue wait, run time and notification delay
// (terminal event receipt − finished) from its JobView timestamps.
func serverTimes(o *opObs, v jobView, receipt time.Time) {
	if v.Started == nil || v.Finished == nil {
		return
	}
	o.add("server.queue_wait_ms", ms(v.Started.Sub(v.Created)))
	o.add("server.job_run_ms", ms(v.Finished.Sub(*v.Started)))
	o.add("server.notify_ms", ms(receipt.Sub(*v.Finished)))
}

// datasetReplay times the dataset layer on the op's own payload: decode
// and encode the CSV; for a versioned mirror, snapshot its current
// version and hash every stable fold's rows, as a re-selection does.
func datasetReplay(o *opObs, csv string, mirror *dataset.Versioned) error {
	var (
		ds  *dataset.Dataset
		err error
	)
	o.timed("dataset.decode_ms", o.root, func() { ds, err = dataset.ReadCSV("payload", strings.NewReader(csv), true) })
	if err != nil {
		return err
	}
	o.timed("dataset.encode_ms", o.root, func() { err = ds.WriteCSV(io.Discard) })
	if err != nil || mirror == nil {
		return err
	}
	var snap *dataset.Dataset
	o.timed("dataset.snapshot_ms", o.root, func() { snap, err = mirror.Snapshot(mirror.Version()) })
	if err != nil {
		return err
	}
	o.timed("dataset.hash_ms", o.root, func() {
		for _, idx := range dataset.StableFoldIndices(snap.N(), libFolds) {
			_ = dataset.HashRows(snap.X, snap.Y, idx)
		}
	})
	return nil
}
