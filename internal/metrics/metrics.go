// Package metrics is cvcpd's dependency-free instrumentation layer:
// counters, gauges, single-label counter vectors and fixed-bucket
// histograms, exposed in the Prometheus text format (version 0.0.4).
//
// The package follows the client_golang shape without the dependency: a
// process-wide default registry, package-level metric construction at
// init time (New* both constructs and registers), and an http.Handler
// that renders every registered family. Instrumented packages declare
// their metrics as package vars; importing the package is registration.
// All operations are lock-free on the hot path — counters and gauges
// are single atomics, histograms are an atomic counter per bucket plus
// a CAS-loop float sum — so instrumentation never serializes the code
// it observes.
//
// Registration order is preserved in the exposition so scrapes are
// stable and diffable; duplicate names panic at init, the same way a
// duplicate flag name would.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metric is one registered family: everything the registry needs to
// render it.
type metric interface {
	name() string
	write(w io.Writer) error
}

// Registry holds an ordered set of metric families. The zero value is
// ready to use.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	byName  map[string]bool
}

// defaultRegistry backs the package-level New* constructors and Handler.
var defaultRegistry = &Registry{}

// Default returns the process-wide registry the package-level
// constructors register into.
func Default() *Registry { return defaultRegistry }

// register adds m, panicking on a duplicate name: metric families are
// declared once, at package init, and a collision is a programming
// error no scrape should paper over.
func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName == nil {
		r.byName = map[string]bool{}
	}
	if r.byName[m.name()] {
		panic(fmt.Sprintf("metrics: duplicate metric name %q", m.name()))
	}
	r.byName[m.name()] = true
	r.metrics = append(r.metrics, m)
}

// Expose renders every registered family in registration order.
func (r *Registry) Expose(w io.Writer) error {
	r.mu.Lock()
	ms := make([]metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()
	for _, m := range ms {
		if err := m.write(w); err != nil {
			return err
		}
	}
	return nil
}

// Handler serves the default registry as a Prometheus scrape endpoint.
func Handler() http.Handler {
	return HandlerFor(defaultRegistry)
}

// HandlerFor serves reg as a Prometheus scrape endpoint.
func HandlerFor(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		var b strings.Builder
		if err := reg.Expose(&b); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if req.Method == http.MethodHead {
			return
		}
		io.WriteString(w, b.String())
	})
}

// header writes the # HELP / # TYPE preamble of one family.
func header(w io.Writer, name, help, typ string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
	return err
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// formatFloat renders a sample value; Prometheus accepts Go's shortest
// 'g' form, including "+Inf".
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter is a monotonically increasing integer.
type Counter struct {
	nam, hlp string
	v        atomic.Uint64
}

// NewCounter constructs and registers a counter in the default registry.
func NewCounter(name, help string) *Counter {
	c := &Counter{nam: name, hlp: help}
	defaultRegistry.register(c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) name() string { return c.nam }

func (c *Counter) write(w io.Writer) error {
	if err := header(w, c.nam, c.hlp, "counter"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", c.nam, c.v.Load())
	return err
}

// CounterVec is a counter family partitioned by one label. Children are
// created on first use and render sorted by label value.
type CounterVec struct {
	nam, hlp, label string

	mu       sync.Mutex
	children map[string]*Counter
}

// NewCounterVec constructs and registers a one-label counter family in
// the default registry.
func NewCounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{nam: name, hlp: help, label: label, children: map[string]*Counter{}}
	defaultRegistry.register(v)
	return v
}

// With returns the child counter for the given label value, creating it
// on first use.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[value]
	if !ok {
		c = &Counter{}
		v.children[value] = c
	}
	return c
}

func (v *CounterVec) name() string { return v.nam }

func (v *CounterVec) write(w io.Writer) error {
	if err := header(w, v.nam, v.hlp, "counter"); err != nil {
		return err
	}
	v.mu.Lock()
	values := make([]string, 0, len(v.children))
	for val := range v.children {
		values = append(values, val)
	}
	sort.Strings(values)
	counts := make([]uint64, len(values))
	for i, val := range values {
		counts[i] = v.children[val].Value()
	}
	v.mu.Unlock()
	for i, val := range values {
		if _, err := fmt.Fprintf(w, "%s{%s=\"%s\"} %d\n", v.nam, v.label, escapeLabel(val), counts[i]); err != nil {
			return err
		}
	}
	return nil
}

// Gauge is an integer that can go up and down.
type Gauge struct {
	nam, hlp string
	v        atomic.Int64
}

// NewGauge constructs and registers a gauge in the default registry.
func NewGauge(name, help string) *Gauge {
	g := &Gauge{nam: name, hlp: help}
	defaultRegistry.register(g)
	return g
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) name() string { return g.nam }

func (g *Gauge) write(w io.Writer) error {
	if err := header(w, g.nam, g.hlp, "gauge"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", g.nam, g.v.Load())
	return err
}

// GaugeVec is a gauge family partitioned by one label. Children are
// created on first use, render sorted by label value, and can be
// deleted when the labeled entity disappears (the series stops being
// exported, rather than freezing at its last value forever).
type GaugeVec struct {
	nam, hlp, label string

	mu       sync.Mutex
	children map[string]*Gauge
}

// NewGaugeVec constructs and registers a one-label gauge family in the
// default registry.
func NewGaugeVec(name, help, label string) *GaugeVec {
	v := &GaugeVec{nam: name, hlp: help, label: label, children: map[string]*Gauge{}}
	defaultRegistry.register(v)
	return v
}

// With returns the child gauge for the given label value, creating it
// on first use.
func (v *GaugeVec) With(value string) *Gauge {
	v.mu.Lock()
	defer v.mu.Unlock()
	g, ok := v.children[value]
	if !ok {
		g = &Gauge{}
		v.children[value] = g
	}
	return g
}

// Delete drops the child for the given label value; a later With
// recreates it at zero. Deleting an absent child is a no-op.
func (v *GaugeVec) Delete(value string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	delete(v.children, value)
}

func (v *GaugeVec) name() string { return v.nam }

func (v *GaugeVec) write(w io.Writer) error {
	if err := header(w, v.nam, v.hlp, "gauge"); err != nil {
		return err
	}
	v.mu.Lock()
	values := make([]string, 0, len(v.children))
	for val := range v.children {
		values = append(values, val)
	}
	sort.Strings(values)
	gauges := make([]int64, len(values))
	for i, val := range values {
		gauges[i] = v.children[val].Value()
	}
	v.mu.Unlock()
	for i, val := range values {
		if _, err := fmt.Fprintf(w, "%s{%s=\"%s\"} %d\n", v.nam, v.label, escapeLabel(val), gauges[i]); err != nil {
			return err
		}
	}
	return nil
}

// Histogram is a fixed-bucket distribution. Buckets are upper bounds
// (exclusive of +Inf, which is implicit); observation is a linear scan
// over at most a few dozen bounds plus two atomics, no locks.
type Histogram struct {
	nam, hlp string
	bounds   []float64
	buckets  []atomic.Uint64 // non-cumulative; bucket i counts v <= bounds[i]
	inf      atomic.Uint64   // v > bounds[len-1]
	sumBits  atomic.Uint64   // float64 bits, updated by CAS
}

// NewHistogram constructs and registers a histogram in the default
// registry. bounds must be sorted ascending and finite.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	for i := range bounds {
		if math.IsNaN(bounds[i]) || math.IsInf(bounds[i], 0) {
			panic(fmt.Sprintf("metrics: %s: bucket bound %v is not finite", name, bounds[i]))
		}
		if i > 0 && bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: %s: bucket bounds not strictly ascending at %d", name, i))
		}
	}
	h := &Histogram{nam: name, hlp: help, bounds: append([]float64(nil), bounds...)}
	h.buckets = make([]atomic.Uint64, len(h.bounds))
	defaultRegistry.register(h)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	placed := false
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.inf.Add(1)
	}
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations: the sum of the buckets, as
// an exposition's _count is.
func (h *Histogram) Count() uint64 {
	n := h.inf.Load()
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) name() string { return h.nam }

func (h *Histogram) write(w io.Writer) error {
	if err := header(w, h.nam, h.hlp, "histogram"); err != nil {
		return err
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.nam, formatFloat(b), cum); err != nil {
			return err
		}
	}
	cum += h.inf.Load()
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.nam, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", h.nam, formatFloat(h.Sum())); err != nil {
		return err
	}
	// _count is the +Inf bucket, from the same loads. A count kept apart
	// and loaded after the buckets could include an observation that
	// landed in between, and the scrape would print _count above +Inf.
	_, err := fmt.Fprintf(w, "%s_count %d\n", h.nam, cum)
	return err
}

// DurationBuckets is the default latency bucket ladder, in seconds:
// 10µs to 60s in roughly 1-2.5-5 steps. It suits everything from WAL
// fsyncs to end-to-end job latency.
var DurationBuckets = []float64{
	0.00001, 0.000025, 0.00005,
	0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05,
	0.1, 0.25, 0.5,
	1, 2.5, 5,
	10, 30, 60,
}
