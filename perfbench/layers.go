package main

import "math"

// How a per-layer metric folds its per-op observations into one value.
type aggKind int

const (
	// meanPerOp averages a count over the ops that observed it. Counts
	// come from deterministic work, so for a given seed they repeat
	// exactly.
	meanPerOp aggKind = iota
	// medianPerOp takes the median over traced ops: times, whose
	// outliers a mean would let through.
	medianPerOp
	// ratioOfSums divides two observation keys summed over all ops, so
	// the ratio is weighted by the work behind it.
	ratioOfSums
	// setByRun is not an op observation: host.scale comes from the
	// calibration kernel, host.run_share from the steal over the timed
	// phase, trace.overhead from the untraced reference run.
	setByRun
)

// layerMetric is one per-layer metric of the traced run. The names,
// units and directions must match the per_layer list of BENCHMARK.json
// (a test checks it).
type layerMetric struct {
	Name, Unit, Better string
	agg                aggKind
	num, den           string // ratioOfSums operands
}

// layerMetrics lists the per-layer metrics in BENCHMARK.json order,
// grouped by the repository module they measure.
var layerMetrics = []layerMetric{
	{Name: "cvcp.plan_ms", Unit: "ms", Better: "lower", agg: medianPerOp},
	{Name: "cvcp.score_ms", Unit: "ms", Better: "lower", agg: medianPerOp},
	{Name: "cvcp.finalize_ms", Unit: "ms", Better: "lower", agg: medianPerOp},
	{Name: "cvcp.cells", Unit: "count", Better: "lower", agg: meanPerOp},

	{Name: "runner.speedup_w2", Unit: "ratio", Better: "higher", agg: medianPerOp},
	{Name: "runner.runcache_misses", Unit: "count", Better: "lower", agg: meanPerOp},
	{Name: "runner.runcache_hit_ratio", Unit: "ratio", Better: "higher", agg: ratioOfSums, num: "runner.runcache_hits", den: "runner.runcache_lookups"},
	{Name: "runner.cellcache_hit_ratio", Unit: "ratio", Better: "higher", agg: ratioOfSums, num: "runner.cellcache_hits", den: "runner.cellcache_lookups"},
	{Name: "runner.cellcache_writes", Unit: "count", Better: "lower", agg: meanPerOp},
	{Name: "runner.limiter_wait_ms", Unit: "ms", Better: "lower", agg: medianPerOp},

	{Name: "linalg.matrix_ms", Unit: "ms", Better: "lower", agg: medianPerOp},
	{Name: "linalg.pairs", Unit: "count", Better: "lower", agg: meanPerOp},

	{Name: "optics.runs", Unit: "count", Better: "lower", agg: meanPerOp},
	{Name: "optics.run_ms", Unit: "ms", Better: "lower", agg: medianPerOp},
	{Name: "hierarchy.builds", Unit: "count", Better: "lower", agg: meanPerOp},
	{Name: "hierarchy.build_ms", Unit: "ms", Better: "lower", agg: medianPerOp},
	{Name: "fosc.extracts", Unit: "count", Better: "lower", agg: meanPerOp},
	{Name: "fosc.extract_ms", Unit: "ms", Better: "lower", agg: medianPerOp},
	{Name: "mpckmeans.runs", Unit: "count", Better: "lower", agg: meanPerOp},
	{Name: "mpckmeans.iters", Unit: "count", Better: "lower", agg: meanPerOp},
	{Name: "mpckmeans.run_ms", Unit: "ms", Better: "lower", agg: medianPerOp},

	{Name: "constraints.train_pairs", Unit: "count", Better: "lower", agg: meanPerOp},
	{Name: "constraints.test_pairs", Unit: "count", Better: "lower", agg: meanPerOp},
	{Name: "eval.score_ms", Unit: "ms", Better: "lower", agg: medianPerOp},

	{Name: "dataset.decode_ms", Unit: "ms", Better: "lower", agg: medianPerOp},
	{Name: "dataset.encode_ms", Unit: "ms", Better: "lower", agg: medianPerOp},
	{Name: "dataset.snapshot_ms", Unit: "ms", Better: "lower", agg: medianPerOp},
	{Name: "dataset.hash_ms", Unit: "ms", Better: "lower", agg: medianPerOp},

	{Name: "store.put_calls", Unit: "count", Better: "lower", agg: meanPerOp},
	{Name: "store.put_ms", Unit: "ms", Better: "lower", agg: medianPerOp},
	{Name: "store.get_calls", Unit: "count", Better: "lower", agg: meanPerOp},
	{Name: "store.get_ms", Unit: "ms", Better: "lower", agg: medianPerOp},
	{Name: "store.update_calls", Unit: "count", Better: "lower", agg: meanPerOp},
	{Name: "store.update_ms", Unit: "ms", Better: "lower", agg: medianPerOp},
	{Name: "store.append_events_calls", Unit: "count", Better: "lower", agg: meanPerOp},
	{Name: "store.append_events_ms", Unit: "ms", Better: "lower", agg: medianPerOp},
	{Name: "store.fsyncs", Unit: "count", Better: "lower", agg: meanPerOp},
	{Name: "store.fsync_ms", Unit: "ms", Better: "lower", agg: medianPerOp},
	{Name: "store.wal_bytes", Unit: "bytes", Better: "lower", agg: meanPerOp},
	{Name: "store.compactions", Unit: "count", Better: "lower", agg: meanPerOp},

	{Name: "server.submit_ms", Unit: "ms", Better: "lower", agg: medianPerOp},
	{Name: "server.append_ms", Unit: "ms", Better: "lower", agg: medianPerOp},
	{Name: "server.queue_wait_ms", Unit: "ms", Better: "lower", agg: medianPerOp},
	{Name: "server.job_run_ms", Unit: "ms", Better: "lower", agg: medianPerOp},
	{Name: "server.notify_ms", Unit: "ms", Better: "lower", agg: medianPerOp},
	{Name: "server.events", Unit: "count", Better: "lower", agg: meanPerOp},

	{Name: "dist.shards", Unit: "count", Better: "lower", agg: meanPerOp},
	{Name: "dist.lease_ratio", Unit: "ratio", Better: "lower", agg: ratioOfSums, num: "dist.leases_and_reclaims", den: "dist.shards"},
	{Name: "dist.lease_wait_ms", Unit: "ms", Better: "lower", agg: medianPerOp},
	{Name: "dist.shard_ms", Unit: "ms", Better: "lower", agg: medianPerOp},
	{Name: "dist.merge_ms", Unit: "ms", Better: "lower", agg: medianPerOp},
	{Name: "dist.reclaims", Unit: "count", Better: "lower", agg: meanPerOp},
	{Name: "dist.heartbeats", Unit: "count", Better: "lower", agg: meanPerOp},

	{Name: "runtime.alloc_mb", Unit: "MB", Better: "lower", agg: meanPerOp},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", agg: meanPerOp},

	{Name: "trace.coverage", Unit: "ratio", Better: "higher", agg: ratioOfSums, num: "trace.layer_ms", den: "trace.cvcp_ms"},
	{Name: "trace.overhead", Unit: "ratio", Better: "lower", agg: setByRun},
	{Name: "host.scale", Unit: "ratio", Better: "higher", agg: setByRun},
	{Name: "host.run_share", Unit: "ratio", Better: "higher", agg: setByRun},
}

// aggregate folds the observations of every op of a traced run into
// the per-layer metrics. counted holds one map per op (traced or not)
// for the keys every op observes — counter deltas — and traced one per
// traced op for the keys only replays produce. A key nobody observed
// reads 0: the layer does not run on this workload.
func aggregate(counted, traced []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, m := range layerMetrics {
		switch m.agg {
		case meanPerOp:
			out[m.Name] = meanOf(pick(counted, traced, m.Name), m.Name)
		case medianPerOp:
			v := median(column(traced, m.Name))
			if math.IsNaN(v) {
				v = 0
			}
			out[m.Name] = v
		case ratioOfSums:
			num := sum(column(counted, m.num)) + sum(column(traced, m.num))
			den := sum(column(counted, m.den)) + sum(column(traced, m.den))
			if den > 0 {
				out[m.Name] = num / den
			} else {
				out[m.Name] = 0
			}
		}
	}
	return out
}

// pick returns whichever observation set carries key: counter deltas
// are taken on every op, replay counts only on traced ops.
func pick(counted, traced []map[string]float64, key string) []map[string]float64 {
	for _, m := range counted {
		if _, ok := m[key]; ok {
			return counted
		}
	}
	return traced
}

func meanOf(obs []map[string]float64, key string) float64 {
	if len(obs) == 0 {
		return 0
	}
	return sum(column(obs, key)) / float64(len(obs))
}

// column returns the values of key in the maps that hold it.
func column(obs []map[string]float64, key string) []float64 {
	var out []float64
	for _, m := range obs {
		if v, ok := m[key]; ok {
			out = append(out, v)
		}
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
