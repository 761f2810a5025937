package main

import (
	"math"
	"testing"
)

func TestPercentileSampleCount(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100 … 1, unsorted on purpose
	}
	cases := []struct {
		p      float64
		want   float64
		beyond int
	}{
		{50, 50, 50},
		{90, 90, 10}, // p90 of 100 ops rests on exactly minTail samples
		{99, 99, 1},
		{100, 100, 0},
		{0.1, 1, 99},
	}
	for _, c := range cases {
		v, beyond := percentile(xs, c.p)
		if v != c.want || beyond != c.beyond {
			t.Errorf("percentile(1..100, %v) = %v with %d beyond, want %v with %d", c.p, v, beyond, c.want, c.beyond)
		}
	}
	if _, beyond := percentile(xs[:99], 90); beyond >= minTail {
		t.Errorf("p90 of 99 samples has %d beyond it; fewer than %d expected", beyond, minTail)
	}
	if v, beyond := percentile(nil, 90); !math.IsNaN(v) || beyond != 0 {
		t.Errorf("percentile(nil) = %v, %d", v, beyond)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median(nil) is not NaN")
	}
}

func TestAggregate(t *testing.T) {
	counted := []map[string]float64{
		{"runner.cellcache_writes": 16, "runner.cellcache_hits": 64, "runner.cellcache_lookups": 80},
		{"runner.cellcache_writes": 16, "runner.cellcache_hits": 60, "runner.cellcache_lookups": 80},
	}
	traced := []map[string]float64{
		{"optics.runs": 8, "optics.run_ms": 10, "trace.layer_ms": 9, "trace.cvcp_ms": 10},
		{"optics.runs": 8, "optics.run_ms": 30, "trace.layer_ms": 11, "trace.cvcp_ms": 10},
		{"optics.runs": 8, "optics.run_ms": 20, "trace.layer_ms": 10, "trace.cvcp_ms": 10},
	}
	got := aggregate(counted, traced)
	want := map[string]float64{
		"runner.cellcache_writes":    16,
		"runner.cellcache_hit_ratio": 124.0 / 160,
		"optics.runs":                8,
		"optics.run_ms":              20,
		"trace.coverage":             1,
		"mpckmeans.run_ms":           0, // the layer does not run
		"mpckmeans.runs":             0,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if len(got) != len(layerMetrics)-3 { // the run loop sets trace.overhead, host.scale and host.run_share
		t.Errorf("aggregate returned %d metrics, want %d", len(got), len(layerMetrics)-3)
	}
}
