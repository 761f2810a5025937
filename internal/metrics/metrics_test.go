package metrics

import (
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// fresh builds metrics registered into a throwaway registry by
// temporarily swapping the default — tests must not pollute the
// process-wide registry that the server packages register into.
func fresh(t *testing.T) *Registry {
	t.Helper()
	old := defaultRegistry
	reg := &Registry{}
	defaultRegistry = reg
	t.Cleanup(func() { defaultRegistry = old })
	return reg
}

func render(t *testing.T, reg *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.Expose(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCounterExposition(t *testing.T) {
	reg := fresh(t)
	c := NewCounter("test_ops_total", "Operations, total.")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
	got := render(t, reg)
	want := "# HELP test_ops_total Operations, total.\n# TYPE test_ops_total counter\ntest_ops_total 5\n"
	if got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

func TestCounterVecExposition(t *testing.T) {
	reg := fresh(t)
	v := NewCounterVec("test_rejects_total", "Rejects by reason.", "reason")
	v.With("queue_full").Add(3)
	v.With("draining").Inc()
	v.With("queue_full").Inc()
	got := render(t, reg)
	for _, want := range []string{
		`test_rejects_total{reason="draining"} 1`,
		`test_rejects_total{reason="queue_full"} 4`,
	} {
		if !strings.Contains(got, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, got)
		}
	}
	// Children render sorted by label value for stable scrapes.
	if strings.Index(got, "draining") > strings.Index(got, "queue_full") {
		t.Errorf("label values not sorted:\n%s", got)
	}
}

func TestGauge(t *testing.T) {
	reg := fresh(t)
	g := NewGauge("test_queue_depth", "Queue depth.")
	g.Set(7)
	g.Inc()
	g.Dec()
	g.Add(-3)
	if g.Value() != 4 {
		t.Fatalf("Value = %d, want 4", g.Value())
	}
	if !strings.Contains(render(t, reg), "test_queue_depth 4\n") {
		t.Error("gauge sample missing")
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	reg := fresh(t)
	h := NewHistogram("test_latency_seconds", "Latency.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-5.605) > 1e-12 {
		t.Fatalf("Sum = %v, want 5.605", h.Sum())
	}
	got := render(t, reg)
	for _, want := range []string{
		`test_latency_seconds_bucket{le="0.01"} 1`,
		`test_latency_seconds_bucket{le="0.1"} 3`,
		`test_latency_seconds_bucket{le="1"} 4`,
		`test_latency_seconds_bucket{le="+Inf"} 5`,
		`test_latency_seconds_sum 5.605`,
		`test_latency_seconds_count 5`,
	} {
		if !strings.Contains(got, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, got)
		}
	}
}

func TestHistogramIgnoresNaN(t *testing.T) {
	fresh(t)
	h := NewHistogram("test_nan_seconds", "x", []float64{1})
	h.Observe(math.NaN())
	if h.Count() != 0 {
		t.Errorf("NaN observation counted")
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	fresh(t)
	NewCounter("test_dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	NewGauge("test_dup_total", "y")
}

func TestBadBucketBoundsPanic(t *testing.T) {
	fresh(t)
	for _, bounds := range [][]float64{
		{1, 1},
		{2, 1},
		{math.Inf(1)},
		{math.NaN()},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v did not panic", bounds)
				}
			}()
			NewHistogram("test_bad_bounds", "x", bounds)
		}()
	}
}

func TestHandler(t *testing.T) {
	reg := fresh(t)
	NewCounter("test_served_total", "x").Inc()
	h := HandlerFor(reg)

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("GET status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rr.Body.String(), "test_served_total 1\n") {
		t.Errorf("body missing sample:\n%s", rr.Body.String())
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/metrics", nil))
	if rr.Code != 405 {
		t.Errorf("POST status %d, want 405", rr.Code)
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := fresh(t)
	v := NewCounterVec("test_esc_total", "x", "who")
	v.With(`a"b\c` + "\n").Inc()
	got := render(t, reg)
	if !strings.Contains(got, `test_esc_total{who="a\"b\\c\n"} 1`) {
		t.Errorf("escaping wrong:\n%s", got)
	}
}

// histogramTotals returns the +Inf bucket and the _count of the named
// histogram in an exposition.
func histogramTotals(t *testing.T, exposition, name string) (inf, count uint64) {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if v, ok := strings.CutPrefix(line, name+`_bucket{le="+Inf"} `); ok {
			inf = parseCount(t, v)
		}
		if v, ok := strings.CutPrefix(line, name+"_count "); ok {
			count = parseCount(t, v)
		}
	}
	return inf, count
}

func parseCount(t *testing.T, v string) uint64 {
	t.Helper()
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestConcurrentObservations(t *testing.T) {
	reg := fresh(t)
	c := NewCounter("test_conc_total", "x")
	h := NewHistogram("test_conc_seconds", "x", []float64{0.5})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.25)
			}
		}()
	}
	// Scrape while the observers run: every exposition must be
	// self-consistent, its +Inf bucket equal to its _count.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false // one last scrape, of the settled histogram
		default:
		}
		if inf, count := histogramTotals(t, render(t, reg), "test_conc_seconds"); inf != count {
			t.Fatalf("+Inf bucket %d != _count %d", inf, count)
		}
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
	if math.Abs(h.Sum()-2000) > 1e-9 {
		t.Errorf("histogram sum = %v, want 2000", h.Sum())
	}
}
