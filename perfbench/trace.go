package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cvcp/internal/metrics"
)

// A span is one timed call at a layer boundary. Parent is the ID of the
// span that caused it (0 for an op's root span); Op is the op index.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them when the run ends.
// Spans arrive from the op loop and from server goroutines (through the
// store decorator), so appends take the mutex.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span.
func (t *tracer) add(op int, parent int64, name string, start, end time.Time) {
	t.finish(t.reserve(), op, parent, name, start, end)
}

// reserve returns a span ID for a span whose children are recorded
// before it ends; finish records it under that ID.
func (t *tracer) reserve() int64 { return t.next.Add(1) }

func (t *tracer) finish(id int64, op int, parent int64, name string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write dumps every span as one JSON line, in recording order.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opObs collects one traced op's per-layer observations: sums per key,
// plus the op's root span for the spans recorded under it.
type opObs struct {
	tr   *tracer
	op   int
	root int64
	v    map[string]float64
}

func newOpObs(tr *tracer, op int) *opObs {
	return &opObs{tr: tr, op: op, root: tr.reserve(), v: map[string]float64{}}
}

func (o *opObs) add(key string, x float64) { o.v[key] += x }

// timed runs fn as a span named name under parent and adds its duration
// in milliseconds to the observation key of the same name.
func (o *opObs) timed(name string, parent int64, fn func()) {
	start := time.Now()
	fn()
	end := time.Now()
	o.v[name] += ms(end.Sub(start))
	o.tr.add(o.op, parent, name, start, end)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// registry is a parsed scrape of the process-wide cvcpd_* metrics: one
// value per exposed series ("name" or "name{label=...}"), histograms as
// their _sum and _count series.
type registry map[string]float64

func scrape() registry {
	var b bytes.Buffer
	if err := metrics.Default().Expose(&b); err != nil {
		return registry{}
	}
	out := registry{}
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// delta returns later − earlier for one series (0 when absent).
func (r registry) delta(earlier registry, series string) float64 {
	return r[series] - earlier[series]
}

// counterDeltas adds the registry's per-op deltas under the observation
// keys the per-layer table reads: counts to counted, which every op of a
// traced run fills, and times to o, which only traced ops have.
func counterDeltas(counted map[string]float64, o *opObs, before, after registry) {
	d := func(s string) float64 { return after.delta(before, s) }
	counted["runner.runcache_misses"] += d("cvcpd_runcache_misses_total")
	counted["runner.runcache_hits"] += d("cvcpd_runcache_hits_total")
	counted["runner.runcache_lookups"] += d("cvcpd_runcache_misses_total") + d("cvcpd_runcache_hits_total")
	counted["runner.cellcache_hits"] += d("cvcpd_cellcache_hits_total")
	counted["runner.cellcache_lookups"] += d("cvcpd_cellcache_hits_total") + d("cvcpd_cellcache_misses_total")
	counted["runner.cellcache_writes"] += d("cvcpd_cellcache_writes_total")
	counted["store.fsyncs"] += d("cvcpd_wal_fsync_seconds_count")
	counted["store.compactions"] += d("cvcpd_store_compactions_total")
	counted["dist.leases"] += d("cvcpd_shard_leases_total")
	counted["dist.reclaims"] += d("cvcpd_shard_reclaims_total")
	counted["dist.heartbeats"] += d("cvcpd_heartbeat_renewals_total")
	if o != nil {
		o.add("runner.limiter_wait_ms", 1000*d("cvcpd_limiter_wait_seconds_sum"))
		o.add("store.fsync_ms", 1000*d("cvcpd_wal_fsync_seconds_sum"))
	}
}

// memSample is the Go runtime's allocation state at one instant.
type memSample struct {
	totalAlloc uint64
	numGC      uint32
}

func readMem() memSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSample{totalAlloc: m.TotalAlloc, numGC: m.NumGC}
}

func memDeltas(counted map[string]float64, before, after memSample) {
	counted["runtime.alloc_mb"] += float64(after.totalAlloc-before.totalAlloc) / (1 << 20)
	counted["runtime.gc_cycles"] += float64(after.numGC - before.numGC)
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
