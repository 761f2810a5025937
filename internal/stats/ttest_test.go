package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// Reference quantiles of the Student-t distribution: P(T <= q) = p.
// Values from standard t tables.
func TestStudentTCDFKnownQuantiles(t *testing.T) {
	cases := []struct {
		df, q, p float64
	}{
		{1, 1.000, 0.75},
		{1, 6.314, 0.95},
		{2, 2.920, 0.95},
		{5, 2.015, 0.95},
		{10, 1.812, 0.95},
		{10, 2.228, 0.975},
		{30, 1.697, 0.95},
		{30, 2.042, 0.975},
		{100, 1.984, 0.975},
	}
	for _, c := range cases {
		got := 1 - StudentTSurvival(c.q, c.df)
		if math.Abs(got-c.p) > 2e-3 {
			t.Errorf("P(T <= %v, df=%v) = %v, want %v", c.q, c.df, got, c.p)
		}
	}
}

func TestStudentTSymmetry(t *testing.T) {
	for _, df := range []float64{1, 3, 10, 50} {
		for _, q := range []float64{0.1, 0.7, 1.5, 3} {
			left := 1 - StudentTSurvival(-q, df)
			right := StudentTSurvival(q, df)
			if math.Abs(left-right) > 1e-9 {
				t.Errorf("symmetry violated at q=%v df=%v: %v vs %v", q, df, left, right)
			}
		}
	}
	if got := 1 - StudentTSurvival(0, 7); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("CDF(0) = %v, want 0.5", got)
	}
}

func TestRegIncBetaKnownValues(t *testing.T) {
	// I_x(1,1) = x (uniform distribution).
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if got := RegIncBeta(1, 1, x); math.Abs(got-x) > 1e-10 {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
	}
	// I_x(2,2) = x^2(3-2x).
	x := 0.3
	want := x * x * (3 - 2*x)
	if got := RegIncBeta(2, 2, x); math.Abs(got-want) > 1e-10 {
		t.Errorf("I_.3(2,2) = %v, want %v", got, want)
	}
	if RegIncBeta(3, 4, 0) != 0 || RegIncBeta(3, 4, 1) != 1 {
		t.Error("boundary values")
	}
}

// Property: RegIncBeta is within [0,1] and non-decreasing in x.
func TestRegIncBetaMonotone(t *testing.T) {
	f := func(ai, bi uint8, x1, x2 float64) bool {
		a := float64(ai%20)/2 + 0.5
		b := float64(bi%20)/2 + 0.5
		x1 = math.Abs(math.Mod(x1, 1))
		x2 = math.Abs(math.Mod(x2, 1))
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		v1 := RegIncBeta(a, b, x1)
		v2 := RegIncBeta(a, b, x2)
		return v1 >= -1e-12 && v2 <= 1+1e-12 && v1 <= v2+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPairedTTestSignificant(t *testing.T) {
	a := []float64{2.1, 2.0, 2.2, 2.1, 2.3, 2.2, 2.0, 2.1}
	b := []float64{1.0, 1.1, 0.9, 1.0, 1.2, 1.0, 1.1, 0.9}
	res, err := PairedTTest(a, b, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Significant || res.MeanDiff <= 0 {
		t.Errorf("expected a significant positive difference, got %+v", res)
	}
	if res.DF != 7 {
		t.Errorf("DF = %d, want 7", res.DF)
	}
}

func TestPairedTTestNotSignificant(t *testing.T) {
	a := []float64{1.0, 2.0, 3.0, 4.0}
	b := []float64{1.1, 1.9, 3.2, 3.8}
	res, err := PairedTTest(a, b, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.Significant {
		t.Errorf("expected no significance, got %+v", res)
	}
}

func TestPairedTTestKnownStatistic(t *testing.T) {
	// Differences: 1,1,1,3 -> mean 1.5, sd 1, t = 1.5/(1/2) = 3, df=3,
	// two-sided p ≈ 0.0577.
	a := []float64{2, 3, 4, 8}
	b := []float64{1, 2, 3, 5}
	res, err := PairedTTest(a, b, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.T-3) > 1e-9 {
		t.Errorf("T = %v, want 3", res.T)
	}
	if math.Abs(res.P-0.0577) > 2e-3 {
		t.Errorf("P = %v, want ~0.0577", res.P)
	}
	if res.Significant {
		t.Error("p=0.058 must not be significant at 0.05")
	}
}

func TestPairedTTestDegenerate(t *testing.T) {
	if _, err := PairedTTest([]float64{1}, []float64{2}, 0.05); err == nil {
		t.Error("expected error for n<2")
	}
	if _, err := PairedTTest([]float64{1, 2}, []float64{1}, 0.05); err == nil {
		t.Error("expected error for length mismatch")
	}
	// Identical samples: zero variance, zero mean difference.
	res, err := PairedTTest([]float64{1, 2, 3}, []float64{1, 2, 3}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.Significant || res.P != 1 {
		t.Errorf("identical samples: %+v", res)
	}
	// Constant shift: zero variance, nonzero difference.
	res, err = PairedTTest([]float64{2, 3, 4}, []float64{1, 2, 3}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Significant || res.P != 0 {
		t.Errorf("constant shift: %+v", res)
	}
}

// Property: the p-value is within [0,1] and symmetric under swapping the
// sample order.
func TestPairedTTestProperties(t *testing.T) {
	f := func(pairs [6][2]float64) bool {
		a := make([]float64, 6)
		b := make([]float64, 6)
		for i, p := range pairs {
			// Keep inputs in a range where differences cannot overflow.
			a[i] = math.Mod(p[0], 1e6)
			b[i] = math.Mod(p[1], 1e6)
			if math.IsNaN(a[i]) {
				a[i] = 0
			}
			if math.IsNaN(b[i]) {
				b[i] = 0
			}
		}
		r1, err1 := PairedTTest(a, b, 0.05)
		r2, err2 := PairedTTest(b, a, 0.05)
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil
		}
		return r1.P >= 0 && r1.P <= 1 && math.Abs(r1.P-r2.P) < 1e-9 &&
			math.Abs(r1.MeanDiff+r2.MeanDiff) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
