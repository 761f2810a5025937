// Package eval implements the evaluation measures of the paper: the internal
// constraint-classification F-measure CVCP scores candidate models with
// (§3.2), the external Overall F-Measure used as clustering ground-truth
// agreement (§4.1), the Silhouette coefficient baseline for selecting k, and
// the relative validity indices the validity scorer selects with.
package eval

import (
	"cvcp/internal/constraints"
)

// SameCluster reports whether objects a and b share a cluster under the
// labeling. Noise objects (label < 0) belong to no cluster, so a pair
// involving noise is never in the same cluster.
func SameCluster(labels []int, a, b int) bool {
	return labels[a] >= 0 && labels[a] == labels[b]
}

// ConstraintConfusion is the 2×2 confusion of a partition viewed as a
// classifier over constraints: must-link is class 1 ("same cluster"),
// cannot-link is class 0 ("split").
type ConstraintConfusion struct {
	TPSame  int // must-link pairs placed in the same cluster
	FNSame  int // must-link pairs split
	TPSplit int // cannot-link pairs split
	FNSplit int // cannot-link pairs placed in the same cluster
}

// Confusion evaluates the labeling against the constraint set.
func Confusion(labels []int, cons *constraints.Set) ConstraintConfusion {
	var c ConstraintConfusion
	for _, p := range cons.MustLinks() {
		if SameCluster(labels, p.A, p.B) {
			c.TPSame++
		} else {
			c.FNSame++
		}
	}
	for _, p := range cons.CannotLinks() {
		if SameCluster(labels, p.A, p.B) {
			c.FNSplit++
		} else {
			c.TPSplit++
		}
	}
	return c
}

// fMeasure returns the F1 score given true positives, false positives and
// false negatives, with the 0/0 case defined as 0.
func fMeasure(tp, fp, fn int) float64 {
	denom := float64(2*tp + fp + fn)
	if denom == 0 {
		return 0
	}
	return 2 * float64(tp) / denom
}

// ConstraintF computes the paper's internal quality score: the average of
// the per-class F-measures of the constraint classifier (class 1 =
// must-link, class 0 = cannot-link). When one class has no constraints in
// the test fold, the average is taken over the present class only; an empty
// constraint set scores 0.
func ConstraintF(labels []int, cons *constraints.Set) float64 {
	c := Confusion(labels, cons)
	nML := c.TPSame + c.FNSame
	nCL := c.TPSplit + c.FNSplit
	if nML+nCL == 0 {
		return 0
	}
	// False positives for "same" are cannot-link pairs predicted same, and
	// vice versa.
	fSame := fMeasure(c.TPSame, c.FNSplit, c.FNSame)
	fSplit := fMeasure(c.TPSplit, c.FNSame, c.FNSplit)
	switch {
	case nML == 0:
		return fSplit
	case nCL == 0:
		return fSame
	default:
		return (fSame + fSplit) / 2
	}
}

// SatisfactionRate returns the fraction of constraints the labeling
// satisfies; a secondary diagnostic (the paper's score is ConstraintF).
func SatisfactionRate(labels []int, cons *constraints.Set) float64 {
	c := Confusion(labels, cons)
	total := c.TPSame + c.FNSame + c.TPSplit + c.FNSplit
	if total == 0 {
		return 0
	}
	return float64(c.TPSame+c.TPSplit) / float64(total)
}
