package copkmeans

import (
	"errors"
	"testing"

	"cvcp/internal/constraints"
	"cvcp/internal/eval"
	"cvcp/internal/stats"
)

func blobs(seed int64, gap float64) ([][]float64, []int) {
	r := stats.NewRand(seed)
	var x [][]float64
	var y []int
	for c := 0; c < 2; c++ {
		for i := 0; i < 12; i++ {
			x = append(x, []float64{gap*float64(c) + r.NormFloat64(), r.NormFloat64()})
			y = append(y, c)
		}
	}
	return x, y
}

func TestErrors(t *testing.T) {
	x, _ := blobs(1, 10)
	if _, err := Run(nil, nil, Config{K: 2}); err == nil {
		t.Error("empty data")
	}
	if _, err := Run(x, nil, Config{K: 0}); err == nil {
		t.Error("K=0")
	}
	if _, err := Run(x, nil, Config{K: 99}); err == nil {
		t.Error("K>n")
	}
}

func TestUnconstrainedRecoversBlobs(t *testing.T) {
	x, y := blobs(2, 12)
	res, err := Run(x, nil, Config{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if of := eval.OverallF(res.Labels, y, nil); of < 0.99 {
		t.Errorf("OverallF = %v", of)
	}
}

// Hard constraints are never violated, including implied ones from the
// transitive closure.
func TestConstraintsNeverViolated(t *testing.T) {
	x, y := blobs(3, 3) // overlapping
	idx := []int{0, 1, 2, 12, 13, 14}
	cons := constraints.FromLabels(idx, y)
	res, err := Run(x, cons, Config{K: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	closed, err := constraints.Closure(cons)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range closed.MustLinks() {
		if res.Labels[p.A] != res.Labels[p.B] {
			t.Errorf("must-link (%d,%d) violated", p.A, p.B)
		}
	}
	for _, p := range closed.CannotLinks() {
		if res.Labels[p.A] == res.Labels[p.B] {
			t.Errorf("cannot-link (%d,%d) violated", p.A, p.B)
		}
	}
}

// Three mutually cannot-linked objects cannot fit in two clusters.
func TestInfeasible(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}, {3}}
	cons := constraints.NewSet()
	cons.Add(0, 1, false)
	cons.Add(1, 2, false)
	cons.Add(0, 2, false)
	_, err := Run(x, cons, Config{K: 2, Seed: 1})
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("got %v, want ErrInfeasible", err)
	}
	// Conflicting ML/CL is infeasible too.
	bad := constraints.NewSet()
	bad.Add(0, 1, true)
	bad.Add(1, 2, true)
	bad.Add(0, 2, false)
	if _, err := Run(x, bad, Config{K: 2, Seed: 1}); err == nil {
		t.Error("expected error for inconsistent constraints")
	}
	// With K=3 the mutual cannot-links are satisfiable.
	res, err := Run(x, cons, Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Labels[0] == res.Labels[1] || res.Labels[1] == res.Labels[2] || res.Labels[0] == res.Labels[2] {
		t.Errorf("cannot-links violated at K=3: %v", res.Labels)
	}
}

func TestMustLinkComponentsMoveTogether(t *testing.T) {
	x, _ := blobs(5, 8)
	cons := constraints.NewSet()
	// Chain the first point of each blob together: they must co-locate
	// even though they are far apart.
	cons.Add(0, 12, true)
	res, err := Run(x, cons, Config{K: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Labels[0] != res.Labels[12] {
		t.Error("must-linked pair split")
	}
}

func TestDeterministic(t *testing.T) {
	x, y := blobs(6, 6)
	cons := constraints.FromLabels([]int{0, 3, 12, 15}, y)
	a, _ := Run(x, cons, Config{K: 2, Seed: 11})
	b, _ := Run(x, cons, Config{K: 2, Seed: 11})
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("not deterministic")
		}
	}
}

func TestSeedPlusPlusCount(t *testing.T) {
	x, _ := blobs(5, 10)
	r := stats.NewRand(1)
	centers := seedPlusPlus(r, x, 3)
	if len(centers) != 3 {
		t.Fatalf("got %d centers", len(centers))
	}
	// Centers are copies, not aliases into x.
	centers[0][0] = 1e9
	for _, p := range x {
		if p[0] == 1e9 {
			t.Fatal("seedPlusPlus aliases input data")
		}
	}
}
