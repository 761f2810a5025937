// Package stats implements the statistical machinery used by the CVCP
// experiments: descriptive statistics, Pearson correlation, a paired
// Student's t-test (with a hand-written t-distribution tail probability via
// the regularized incomplete beta function), and five-number summaries used
// to reproduce the paper's boxplot figures.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (n-1 denominator).
// It returns 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return s
}

// quantileSorted returns the q-quantile (0 ≤ q ≤ 1) of the sorted slice s
// using linear interpolation between order statistics (type-7, the
// R/NumPy default).
func quantileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// FiveNum is the five-number summary used to render boxplots: minimum, first
// quartile, median, third quartile and maximum, plus the mean for reference.
type FiveNum struct {
	Min, Q1, Median, Q3, Max, Mean float64
	N                              int
}

// Summary computes the five-number summary of xs.
func Summary(xs []float64) FiveNum {
	if len(xs) == 0 {
		return FiveNum{}
	}
	s := sortedCopy(xs)
	return FiveNum{
		Min:    s[0],
		Q1:     quantileSorted(s, 0.25),
		Median: quantileSorted(s, 0.5),
		Q3:     quantileSorted(s, 0.75),
		Max:    s[len(s)-1],
		Mean:   Mean(xs),
		N:      len(xs),
	}
}

// Pearson returns the Pearson product-moment correlation coefficient between
// xs and ys. It returns 0 when either series is constant or the lengths
// differ or are < 2; callers in the experiment harness treat that as
// "no correlation measurable", matching how a flat clustering-score curve
// behaves in the paper's plots.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
