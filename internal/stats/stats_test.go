package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); math.Abs(got-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, 32.0/7)
	}
	if got := StdDev(xs); math.Abs(got-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("StdDev = %v", got)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("empty/singleton edge cases")
	}
}

func TestMedianQuantile(t *testing.T) {
	if got := quantileSorted(sortedCopy([]float64{3, 1, 2}), 0.5); got != 2 {
		t.Errorf("Median odd = %v", got)
	}
	if got := quantileSorted(sortedCopy([]float64{4, 1, 2, 3}), 0.5); got != 2.5 {
		t.Errorf("Median even = %v", got)
	}
	xs := []float64{1, 2, 3, 4, 5}
	if got := quantileSorted(xs, 0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := quantileSorted(xs, 1); got != 5 {
		t.Errorf("q1 = %v", got)
	}
	if got := quantileSorted(xs, 0.25); got != 2 {
		t.Errorf("q.25 = %v, want 2", got)
	}
}

func TestSummary(t *testing.T) {
	s := Summary([]float64{1, 2, 3, 4, 5})
	if s.Min != 1 || s.Max != 5 || s.Median != 3 || s.N != 5 || s.Mean != 3 {
		t.Errorf("Summary = %+v", s)
	}
	if s.Q1 != 2 || s.Q3 != 4 {
		t.Errorf("quartiles = %v, %v", s.Q1, s.Q3)
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	if got := Pearson(x, y); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect positive corr = %v", got)
	}
	yneg := []float64{8, 6, 4, 2}
	if got := Pearson(x, yneg); math.Abs(got+1) > 1e-12 {
		t.Errorf("perfect negative corr = %v", got)
	}
	if got := Pearson(x, []float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("constant series corr = %v, want 0", got)
	}
	if got := Pearson(x, []float64{1, 2}); got != 0 {
		t.Errorf("mismatched lengths corr = %v, want 0", got)
	}
}

// Property: Pearson is bounded in [-1, 1] and invariant to positive affine
// transformations of either argument.
func TestPearsonProperties(t *testing.T) {
	f := func(x, y [6]float64) bool {
		// Keep inputs in a range where sums of squares cannot overflow.
		for i := range x {
			x[i] = math.Mod(x[i], 1e6)
			y[i] = math.Mod(y[i], 1e6)
			if math.IsNaN(x[i]) {
				x[i] = 0
			}
			if math.IsNaN(y[i]) {
				y[i] = 0
			}
		}
		r := Pearson(x[:], y[:])
		if r < -1-1e-9 || r > 1+1e-9 {
			return false
		}
		shifted := make([]float64, 6)
		for i, v := range x {
			shifted[i] = 3*v + 7
		}
		r2 := Pearson(shifted, y[:])
		return math.Abs(r-r2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuantileMonotone(t *testing.T) {
	f := func(xs [8]float64, a, b float64) bool {
		qa := math.Abs(math.Mod(a, 1))
		qb := math.Abs(math.Mod(b, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		s := sortedCopy(xs[:])
		va := quantileSorted(s, qa)
		vb := quantileSorted(s, qb)
		lo := quantileSorted(s, 0)
		hi := quantileSorted(s, 1)
		return va <= vb+1e-9 && va >= lo-1e-9 && vb <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitSeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := SplitSeed(42, i)
		if s < 0 {
			t.Fatalf("SplitSeed(42,%d) = %d is negative", i, s)
		}
		if seen[s] {
			t.Fatalf("SplitSeed collision at i=%d", i)
		}
		seen[s] = true
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a := NewRand(7).Int63()
	b := NewRand(7).Int63()
	if a != b {
		t.Error("NewRand not deterministic")
	}
}
