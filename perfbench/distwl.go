package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cvcp/internal/cvcp"
	"cvcp/internal/dataset"
	"cvcp/internal/server"
	"cvcp/internal/stats"
	"cvcp/internal/store"
)

// distWorkload is svc-dist: a coordinator and two workers (Workers=1
// each) in this process, each on its own store.OpenShared handle of one
// directory, with the default lease TTL and a 10 ms poll. Each op
// submits an inline-CSV FOSC job.
type distWorkload struct {
	seed int64
	root string
	tr   *tracer
	ops  int

	dir     string
	handles []*store.Shared
	stats   *storeStats
	node    *node
	workers *workerPool
	cl      *client
	rep     replayer
	checked map[int]outcome // results of the ops finish recomputes
	ended   endedJobs
}

// jobRequest is op op's submission: n=512 rows inline, labels on 10% of
// the objects, 10 folds, default MinPts.
func (w *distWorkload) jobRequest(op int) (map[string]any, string, error) {
	csv, err := distCSV(w.seed, op)
	if err != nil {
		return nil, "", err
	}
	return map[string]any{"name": "inline", "csv": csv, "has_label": true, "algorithm": "fosc",
		"label_fraction": labelFraction, "folds": libFolds, "seed": opSeed(w.seed, op)}, csv, nil
}

// spec is the single-node library selection of op op's job, as the
// server builds it from the CSV.
func (w *distWorkload) spec(csv string, op int) (cvcp.Spec, error) {
	ds, err := dataset.ReadCSV("inline", strings.NewReader(csv), true)
	if err != nil {
		return cvcp.Spec{}, err
	}
	s := opSeed(w.seed, op)
	return foscJobSpec(ds, cvcp.Labels(ds.SampleLabels(stats.NewRand(s), labelFraction)), s), nil
}

// distWarmJobs warm jobs end each set-up round: with one, a round took
// about 0.15 s, most of it starting the roles, and its time moved with
// every hiccup of the host.
const distWarmJobs = 3

func (w *distWorkload) setUp(ctx context.Context, round int, cal *calibrator) error {
	w.dir = filepath.Join(w.root, fmt.Sprintf("svc-dist-%d", round))
	if err := os.RemoveAll(w.dir); err != nil {
		return err
	}
	w.stats = newStoreStats(w.tr)
	w.ended = endedJobs{}
	var stores []store.Store
	for range 3 {
		h, err := store.OpenShared(w.dir)
		if err != nil {
			return err
		}
		w.handles = append(w.handles, h)
		stores = append(stores, newTimedStore(h, w.stats))
	}
	var err error
	w.node, err = startNode(server.Config{QueueDepth: svcQueueDepth, MaxRunningJobs: svcRunningJobs,
		WorkerBudget: svcWorkerBudget, RetainFinished: svcRetain, Store: stores[0], Role: server.RoleCoordinator,
		Poll: distPoll})
	if err != nil {
		return err
	}
	w.workers = startWorkers(stores[1:])
	w.cl = newClient(w.node.addr)

	w.checked = map[int]outcome{}
	// Warm job j of round r is op -1-r·distWarmJobs-j: no two share
	// inputs with each other or with a timed op.
	for j := 0; j < distWarmJobs; j++ {
		req, _, err := w.jobRequest(-1 - round*distWarmJobs - j)
		if err != nil {
			return err
		}
		cal.sample()
		v, err := w.cl.runJob(ctx, req)
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

func (w *distWorkload) settle(ctx context.Context) error { return w.ended.settle(ctx, w.stats) }

func (w *distWorkload) tearDown() {
	if w.node != nil {
		_ = w.node.stop()
		w.node = nil
	}
	if w.workers != nil {
		w.workers.stop()
		w.workers = nil
	}
	if w.cl != nil {
		w.cl.hc.CloseIdleConnections()
	}
	for _, h := range w.handles {
		_ = h.Close()
	}
	w.handles = nil
	_ = os.RemoveAll(w.dir)
}

// checkedOps are the op indices finish recomputes single-node.
func (w *distWorkload) checkedOps() []int { return []int{0, w.ops / 2, w.ops - 1} }

func (w *distWorkload) op(ctx context.Context, i int, o *opObs, counted map[string]float64) (time.Duration, error) {
	req, csv, err := w.jobRequest(i)
	if err != nil {
		return 0, err
	}
	var (
		before                registry
		memBefore             memSample
		callsBefore, msBefore [numStoreOps]float64
		running, end          time.Time
		events                int
		leased, shardDone     []time.Time // by shard index
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
	onEvent := func(ev sseEvent, at time.Time) {
		events++
		switch {
		case ev.Type == "status" && ev.Status == "running":
			running = at
		case ev.Type == "shard" && ev.Shard >= 0 && ev.Shard < ev.Shards:
			if leased == nil {
				leased, shardDone = make([]time.Time, ev.Shards), make([]time.Time, ev.Shards)
			}
			if ev.ShardStatus == "leased" && leased[ev.Shard].IsZero() {
				leased[ev.Shard] = at
			}
			if ev.ShardStatus == "done" {
				shardDone[ev.Shard] = at
			}
		}
	}
	start := time.Now()
	id, err := w.cl.submitJob(ctx, req)
	submitted := time.Now()
	var status string
	if err == nil {
		status, end, err = w.cl.waitTerminal(ctx, id, onEvent)
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
	var v jobView
	if err := w.cl.do(ctx, http.MethodGet, "/v1/jobs/"+id, "", nil, &v); err != nil {
		return lat, err
	}
	got, err := v.outcome()
	if err != nil {
		return lat, fmt.Errorf("%w (terminal event %s)", err, status)
	}
	if err := checkView(got, cvcp.DefaultMinPtsRange, distN); err != nil {
		return lat, err
	}
	for _, c := range w.checkedOps() {
		if c == i {
			w.checked[i] = got
		}
	}

	if counted == nil {
		return lat, nil
	}
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
	counted["dist.shards"] += float64(len(leased))
	counted["dist.leases_and_reclaims"] += counted["dist.leases"] + counted["dist.reclaims"]
	if o == nil {
		return lat, nil
	}

	o.add("server.submit_ms", ms(submitted.Sub(start)))
	serverTimes(o, v, end)
	// Per shard: lease wait is running → first leased (or, for a shard
	// leased and finished between two coordinator polls, done) event;
	// shard time is leased → done; merge is the last done → terminal.
	var wait, run, leasedN float64
	var lastDone time.Time
	for s, done := range shardDone {
		if done.IsZero() || running.IsZero() {
			return lat, fmt.Errorf("shard %d of job %s lacks a running or done event", s, id)
		}
		first := done
		if !leased[s].IsZero() {
			first = leased[s]
			run += ms(done.Sub(leased[s]))
			leasedN++
		}
		wait += ms(first.Sub(running))
		if done.After(lastDone) {
			lastDone = done
		}
	}
	if n := float64(len(shardDone)); n > 0 {
		o.add("dist.lease_wait_ms", wait/n)
		o.add("dist.merge_ms", ms(end.Sub(lastDone)))
	}
	if leasedN > 0 {
		o.add("dist.shard_ms", run/leasedN)
	}
	if err := datasetReplay(o, csv, nil); err != nil {
		return lat, err
	}
	spec, err := w.spec(csv, i)
	if err != nil {
		return lat, err
	}
	return lat, w.rep.replay(ctx, o, spec, &got)
}

// finish recomputes the checked ops with a single-node library Select of
// the same spec; each must match the distributed result bit for bit.
func (w *distWorkload) finish(ctx context.Context) error {
	for _, i := range w.checkedOps() {
		want, ok := w.checked[i]
		if !ok {
			return fmt.Errorf("op %d produced no result", i)
		}
		_, csv, err := w.jobRequest(i)
		if err != nil {
			return err
		}
		spec, err := w.spec(csv, i)
		if err != nil {
			return err
		}
		res, err := cvcp.Select(ctx, spec)
		if err != nil {
			return fmt.Errorf("single-node select of op %d: %w", i, err)
		}
		if err := sameOutcome(want, outcomeOf(res)); err != nil {
			return fmt.Errorf("op %d differs from single-node Select: %v", i, err)
		}
	}
	return nil
}
