package stats

import (
	"errors"
	"math"
)

// TTestResult reports the outcome of a paired two-sided Student's t-test.
type TTestResult struct {
	T           float64 // t statistic
	DF          int     // degrees of freedom (n-1)
	P           float64 // two-sided p-value
	MeanDiff    float64 // mean of (a[i]-b[i])
	Significant bool    // P < alpha used in the call
}

// ErrTTest is returned when a t-test cannot be computed (fewer than two
// pairs, mismatched lengths, or zero variance with zero mean difference).
var ErrTTest = errors.New("stats: t-test undefined for input")

// PairedTTest runs a two-sided paired t-test on the samples a and b at
// significance level alpha (the paper uses alpha = 0.05).
//
// If the differences have zero variance, the test degenerates: a zero mean
// difference yields p=1, a nonzero one yields p=0 (the samples differ by a
// deterministic constant). This matches how the paper's "very small variance"
// cases produce significance.
func PairedTTest(a, b []float64, alpha float64) (TTestResult, error) {
	if len(a) != len(b) || len(a) < 2 {
		return TTestResult{}, ErrTTest
	}
	n := len(a)
	d := make([]float64, n)
	for i := range a {
		d[i] = a[i] - b[i]
	}
	md := Mean(d)
	sd := StdDev(d)
	df := n - 1
	if sd == 0 {
		if md == 0 {
			return TTestResult{T: 0, DF: df, P: 1, MeanDiff: 0, Significant: false}, nil
		}
		return TTestResult{T: math.Inf(sign(md)), DF: df, P: 0, MeanDiff: md, Significant: alpha > 0}, nil
	}
	t := md / (sd / math.Sqrt(float64(n)))
	p := 2 * StudentTSurvival(math.Abs(t), float64(df))
	return TTestResult{T: t, DF: df, P: p, MeanDiff: md, Significant: p < alpha}, nil
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// StudentTSurvival returns P(T > t) for a Student's t distribution with df
// degrees of freedom, for t >= 0.
func StudentTSurvival(t, df float64) float64 {
	if t < 0 {
		return 1 - StudentTSurvival(-t, df)
	}
	// P(T > t) = I_{df/(df+t^2)}(df/2, 1/2) / 2  (regularized incomplete beta)
	x := df / (df + t*t)
	return 0.5 * RegIncBeta(df/2, 0.5, x)
}

// RegIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion from Numerical Recipes (betacf).
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(lbeta + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta function
// by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}
