// Package linalg provides the small dense vector and metric operations that
// the clustering algorithms in this repository are built on. All operations
// work on []float64 and are allocation-conscious: functions that need a
// destination accept one, so hot loops (k-means assignment, OPTICS expansion)
// can run without garbage.
package linalg

import (
	"fmt"
	"math"
)

// SqDist returns the squared Euclidean distance between a and b.
func SqDist(a, b []float64) float64 {
	checkLen(a, b)
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

// Dist returns the Euclidean distance between a and b.
func Dist(a, b []float64) float64 {
	return math.Sqrt(SqDist(a, b))
}

// WeightedSqDist returns the squared distance between a and b under the
// diagonal metric w: sum_i w[i]*(a[i]-b[i])^2. This is the diagonal
// Mahalanobis form used by MPCKmeans metric learning.
func WeightedSqDist(a, b, w []float64) float64 {
	checkLen(a, b)
	checkLen(a, w)
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += w[i] * d * d
	}
	return s
}

// Scale stores s*a in dst and returns dst. dst may alias a.
func Scale(dst []float64, s float64, a []float64) []float64 {
	dst = ensure(dst, len(a))
	for i := range a {
		dst[i] = s * a[i]
	}
	return dst
}

// AXPY adds s*a to dst in place: dst += s*a.
func AXPY(dst []float64, s float64, a []float64) {
	checkLen(dst, a)
	for i := range a {
		dst[i] += s * a[i]
	}
}

// MeanInto computes the mean of the rows of x indexed by idx into dst.
// It panics if idx is empty.
func MeanInto(dst []float64, x [][]float64, idx []int) []float64 {
	if len(idx) == 0 {
		panic("linalg: MeanInto of empty index set")
	}
	dst = ensure(dst, len(x[idx[0]]))
	for i := range dst {
		dst[i] = 0
	}
	for _, j := range idx {
		AXPY(dst, 1, x[j])
	}
	Scale(dst, 1/float64(len(idx)), dst)
	return dst
}

// Clone returns a deep copy of a.
func Clone(a []float64) []float64 {
	c := make([]float64, len(a))
	copy(c, a)
	return c
}

// CloneMatrix returns a deep copy of the row-slice matrix x.
func CloneMatrix(x [][]float64) [][]float64 {
	c := make([][]float64, len(x))
	for i, row := range x {
		c[i] = Clone(row)
	}
	return c
}

func ensure(dst []float64, n int) []float64 {
	if dst == nil {
		return make([]float64, n)
	}
	if len(dst) != n {
		panic(fmt.Sprintf("linalg: destination length %d, want %d", len(dst), n))
	}
	return dst
}

func checkLen(a, b []float64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: length mismatch %d vs %d", len(a), len(b)))
	}
}
