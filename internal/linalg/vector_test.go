package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// clamp maps arbitrary float64s (including huge magnitudes and NaN) into a
// range where squared distances cannot overflow.
func clamp(vs []float64) []float64 {
	for i, v := range vs {
		if math.IsNaN(v) {
			vs[i] = 0
			continue
		}
		vs[i] = math.Mod(v, 1e6)
	}
	return vs
}

func TestDistances(t *testing.T) {
	a := []float64{0, 0}
	b := []float64{3, 4}
	if got := SqDist(a, b); got != 25 {
		t.Errorf("SqDist = %v, want 25", got)
	}
	if got := Dist(a, b); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
}

func TestSqDistPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	SqDist([]float64{1}, []float64{1, 2})
}

func TestWeightedSqDist(t *testing.T) {
	a := []float64{1, 0}
	b := []float64{0, 2}
	w := []float64{2, 0.5}
	// 2*1 + 0.5*4 = 4
	if got := WeightedSqDist(a, b, w); got != 4 {
		t.Errorf("WeightedSqDist = %v, want 4", got)
	}
	// Unit weights reduce to the squared Euclidean distance.
	if got := WeightedSqDist(a, b, []float64{1, 1}); got != SqDist(a, b) {
		t.Errorf("unit-weight WeightedSqDist = %v, want %v", got, SqDist(a, b))
	}
}

func TestScaleAXPY(t *testing.T) {
	a := []float64{1, 2}
	if got := Scale(nil, 2, a); got[0] != 2 || got[1] != 4 {
		t.Errorf("Scale = %v", got)
	}
	dst := []float64{1, 1}
	AXPY(dst, 3, a)
	if dst[0] != 4 || dst[1] != 7 {
		t.Errorf("AXPY = %v", dst)
	}
}

func TestMeanInto(t *testing.T) {
	x := [][]float64{{0, 0}, {2, 4}, {10, 10}}
	m := MeanInto(nil, x, []int{0, 1})
	if m[0] != 1 || m[1] != 2 {
		t.Errorf("MeanInto = %v", m)
	}
}

func TestMeanEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on empty MeanInto")
		}
	}()
	MeanInto(nil, [][]float64{{1}}, nil)
}

func TestCloneIndependence(t *testing.T) {
	a := []float64{1, 2}
	c := Clone(a)
	c[0] = 99
	if a[0] != 1 {
		t.Error("Clone shares storage")
	}
	m := [][]float64{{1}, {2}}
	cm := CloneMatrix(m)
	cm[0][0] = 99
	if m[0][0] != 1 {
		t.Error("CloneMatrix shares storage")
	}
}

// Property: the triangle inequality holds for Dist.
func TestDistTriangleInequality(t *testing.T) {
	f := func(a, b, c [4]float64) bool {
		av, bv, cv := clamp(a[:]), clamp(b[:]), clamp(c[:])
		ab := Dist(av, bv)
		bc := Dist(bv, cv)
		ac := Dist(av, cv)
		return ac <= ab+bc+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: distances are symmetric and zero on the diagonal.
func TestDistSymmetry(t *testing.T) {
	f := func(a, b [5]float64) bool {
		av, bv := clamp(a[:]), clamp(b[:])
		return almostEq(Dist(av, bv), Dist(bv, av)) && Dist(av, av) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: WeightedSqDist with non-negative weights is non-negative.
func TestWeightedSqDistNonNegative(t *testing.T) {
	f := func(a, b, w [4]float64) bool {
		av, bv := clamp(a[:]), clamp(b[:])
		wpos := make([]float64, 4)
		for i, v := range clamp(w[:]) {
			wpos[i] = math.Abs(v)
		}
		return WeightedSqDist(av, bv, wpos) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
