package main

import (
	"testing"
	"time"
)

func TestRunShare(t *testing.T) {
	at := func(cpu, steal time.Duration) hostSample { return hostSample{cpu: cpu, steal: steal} }
	cases := []struct {
		name string
		a, b hostSample
		want float64
	}{
		{"nothing stolen", at(0, 0), at(200*time.Millisecond, 0), 1},
		{"a fifth stolen", at(time.Second, 3*time.Second), at(1800*time.Millisecond, 3200*time.Millisecond), 0.8},
		{"no CPU time", at(time.Second, 0), at(time.Second, 10*time.Millisecond), 1},
		{"unreadable counters", hostSample{}, hostSample{}, 1},
	}
	for _, c := range cases {
		if got := runShare(c.a, c.b); got != c.want {
			t.Errorf("%s: runShare = %v, want %v", c.name, got, c.want)
		}
	}
	if got := product([]float64{0.2, 0.5}, []float64{1, 0.8}); got[0] != 0.2 || got[1] != 0.4 {
		t.Errorf("product = %v, want [0.2 0.4]", got)
	}
}

// TestHostCounters checks that this machine exposes what the run share
// and the kernel read: the process's CPU time grows with work, and the
// kernel's thread CPU time is positive and at most its wall time.
func TestHostCounters(t *testing.T) {
	before := readHost()
	c := newCalibrator()
	wall := time.Now()
	c.sample()
	elapsed := time.Since(wall)
	after := readHost()
	if after.cpu <= before.cpu {
		t.Errorf("process CPU time went from %v to %v over a kernel sample", before.cpu, after.cpu)
	}
	if after.steal < before.steal {
		t.Errorf("steal went back from %v to %v", before.steal, after.steal)
	}
	if len(c.samples) != procs*calPasses {
		t.Fatalf("one sample kept %d kernel times, want %d", len(c.samples), procs*calPasses)
	}
	for _, s := range c.samples {
		if !(s > 0) || s > elapsed.Seconds() {
			t.Errorf("kernel CPU time %v s outside (0, %v]", s, elapsed.Seconds())
		}
	}
	if s := c.scale(); !(s > 0) {
		t.Errorf("scale = %v", s)
	}
}
