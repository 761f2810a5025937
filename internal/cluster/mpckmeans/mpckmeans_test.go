package mpckmeans

import (
	"slices"
	"testing"

	"cvcp/internal/constraints"
	"cvcp/internal/eval"
	"cvcp/internal/stats"
)

func twoBlobs(seed int64, gap float64) ([][]float64, []int) {
	r := stats.NewRand(seed)
	var x [][]float64
	var y []int
	for c := 0; c < 2; c++ {
		for i := 0; i < 15; i++ {
			x = append(x, []float64{gap*float64(c) + r.NormFloat64(), r.NormFloat64()})
			y = append(y, c)
		}
	}
	return x, y
}

func TestRunErrors(t *testing.T) {
	x, _ := twoBlobs(1, 10)
	if _, err := Run(nil, nil, Config{K: 2}); err == nil {
		t.Error("expected error for empty data")
	}
	if _, err := Run(x, nil, Config{K: 0}); err == nil {
		t.Error("expected error for K=0")
	}
	if _, err := Run(x, nil, Config{K: 31}); err == nil {
		t.Error("expected error for K>n")
	}
	bad := constraints.NewSet()
	bad.Add(0, 1, true)
	bad.Add(0, 1, false)
	if _, err := Run(x, bad, Config{K: 2}); err == nil {
		t.Error("expected error for conflicting constraints")
	}
	for _, p := range [][2]int{{0, 30}, {-1, 5}, {3, 1 << 40}} {
		for _, mustLink := range []bool{true, false} {
			outside := constraints.NewSet()
			outside.Add(1, 2, true)
			outside.Add(p[0], p[1], mustLink)
			if _, err := Run(x, outside, Config{K: 2}); err == nil {
				t.Errorf("expected error for constraint %v (must-link %v) on 30 objects", p, mustLink)
			}
		}
	}
}

// The must-link neighbourhoods Run derives from its adjacency lists are
// exactly constraints.MustLinkComponents: same components, ordered by
// smallest member, members ascending.
func TestNeighborhoodsMatchComponents(t *testing.T) {
	r := stats.NewRand(11)
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(40)
		cons := constraints.NewSet()
		for m := r.Intn(3 * n); m > 0; m-- {
			a, b := r.Intn(n), r.Intn(n)
			if a != b && !cons.HasMustLink(a, b) && !cons.HasCannotLink(a, b) {
				cons.Add(a, b, r.Intn(3) == 0)
			}
		}
		mlAdj, err := adjacency(cons.MustLinks(), n)
		if err != nil {
			t.Fatal(err)
		}
		clAdj, err := adjacency(cons.CannotLinks(), n)
		if err != nil {
			t.Fatal(err)
		}
		got := (&model{n: n, mlAdj: mlAdj, clAdj: clAdj}).neighborhoods()
		want := constraints.MustLinkComponents(cons)
		if !slices.EqualFunc(got, want, slices.Equal[[]int]) {
			t.Fatalf("trial %d: neighbourhoods %v, components %v", trial, got, want)
		}
	}
}

func TestUnconstrainedRecoversBlobs(t *testing.T) {
	x, y := twoBlobs(2, 12)
	res, err := Run(x, nil, Config{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if of := eval.OverallF(res.Labels, y, nil); of < 0.99 {
		t.Errorf("unconstrained OverallF = %v", of)
	}
}

// With overlapping blobs, constraints must measurably improve the result.
func TestConstraintsImproveOverlap(t *testing.T) {
	x, y := twoBlobs(5, 2.0) // heavy overlap
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	cons := constraints.FromLabels(idx[:12], y)
	free, err := Run(x, nil, Config{K: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	guided, err := Run(x, cons, Config{K: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ofFree := eval.OverallF(free.Labels, y, nil)
	ofGuided := eval.OverallF(guided.Labels, y, nil)
	if ofGuided+0.02 < ofFree {
		t.Errorf("constraints hurt: guided %v vs free %v", ofGuided, ofFree)
	}
	// The supervised objects themselves must respect the must-links.
	violated := 0
	for _, p := range cons.MustLinks() {
		if guided.Labels[p.A] != guided.Labels[p.B] {
			violated++
		}
	}
	if violated > len(cons.MustLinks())/4 {
		t.Errorf("%d/%d must-links violated", violated, len(cons.MustLinks()))
	}
}

func TestMetricsStayPositive(t *testing.T) {
	x, y := twoBlobs(6, 3)
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7}
	cons := constraints.FromLabels(idx, y)
	res, err := Run(x, cons, Config{K: 2, Seed: 1, LearnMetric: true})
	if err != nil {
		t.Fatal(err)
	}
	for c, m := range res.Metrics {
		for j, v := range m {
			if v <= 0 {
				t.Errorf("metric[%d][%d] = %v", c, j, v)
			}
		}
	}
}

func TestDeterministic(t *testing.T) {
	x, y := twoBlobs(7, 5)
	cons := constraints.FromLabels([]int{0, 5, 10, 20}, y)
	a, _ := Run(x, cons, Config{K: 2, Seed: 9, LearnMetric: true})
	b, _ := Run(x, cons, Config{K: 2, Seed: 9, LearnMetric: true})
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed, different labels")
		}
	}
}

func TestLabelsInRange(t *testing.T) {
	x, y := twoBlobs(8, 4)
	cons := constraints.FromLabels([]int{0, 1, 15, 16}, y)
	for k := 1; k <= 5; k++ {
		res, err := Run(x, cons, Config{K: k, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range res.Labels {
			if l < 0 || l >= k {
				t.Fatalf("K=%d: label[%d] = %d", k, i, l)
			}
		}
	}
}

// Seeding from must-link neighborhoods: with K neighborhoods given, every
// neighborhood should end up internally coherent on easy data.
func TestNeighborhoodSeeding(t *testing.T) {
	x, y := twoBlobs(9, 12)
	cons := constraints.NewSet()
	// Two must-link chains, one per class.
	chain0 := []int{}
	chain1 := []int{}
	for i := range x {
		if y[i] == 0 && len(chain0) < 4 {
			chain0 = append(chain0, i)
		}
		if y[i] == 1 && len(chain1) < 4 {
			chain1 = append(chain1, i)
		}
	}
	for i := 1; i < 4; i++ {
		cons.Add(chain0[0], chain0[i], true)
		cons.Add(chain1[0], chain1[i], true)
	}
	res, err := Run(x, cons, Config{K: 2, Seed: 3, LearnMetric: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Labels[chain0[0]] == res.Labels[chain1[0]] {
		t.Error("the two must-link neighborhoods collapsed into one cluster")
	}
}
