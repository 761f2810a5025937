// Package dataset defines the in-memory dataset representation shared by the
// clustering algorithms, the CVCP framework and the experiment harness, along
// with CSV import/export and label sampling.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"cvcp/internal/linalg"
)

// Dataset is a numeric dataset with optional integer class labels.
// Y[i] is the ground-truth class of object i; label -1 means "unlabeled".
// All rows of X share the same dimensionality.
type Dataset struct {
	Name string
	X    [][]float64
	Y    []int
}

// New validates x (and y, if non-nil) and wraps them in a Dataset.
func New(name string, x [][]float64, y []int) (*Dataset, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("dataset %q: no objects", name)
	}
	d := len(x[0])
	if d == 0 {
		return nil, fmt.Errorf("dataset %q: zero-dimensional objects", name)
	}
	for i, row := range x {
		if len(row) != d {
			return nil, fmt.Errorf("dataset %q: row %d has %d attributes, want %d", name, i, len(row), d)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("dataset %q: row %d attribute %d is not finite", name, i, j)
			}
		}
	}
	if y != nil && len(y) != len(x) {
		return nil, fmt.Errorf("dataset %q: %d labels for %d objects", name, len(y), len(x))
	}
	return &Dataset{Name: name, X: x, Y: y}, nil
}

// MustNew is New but panics on error; intended for tests and generators whose
// inputs are constructed programmatically.
func MustNew(name string, x [][]float64, y []int) *Dataset {
	d, err := New(name, x, y)
	if err != nil {
		panic(err)
	}
	return d
}

// N returns the number of objects.
func (d *Dataset) N() int { return len(d.X) }

// Dims returns the number of attributes per object.
func (d *Dataset) Dims() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Labeled reports whether the dataset carries ground-truth labels.
func (d *Dataset) Labeled() bool { return d.Y != nil }

// Classes returns the sorted distinct labels present in Y (excluding -1).
func (d *Dataset) Classes() []int {
	if d.Y == nil {
		return nil
	}
	seen := map[int]bool{}
	for _, y := range d.Y {
		if y >= 0 {
			seen[y] = true
		}
	}
	out := make([]int, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// NumClasses returns the number of distinct non-negative labels.
func (d *Dataset) NumClasses() int { return len(d.Classes()) }

// Clone returns a deep copy of the dataset.
func (d *Dataset) Clone() *Dataset {
	c := &Dataset{Name: d.Name, X: linalg.CloneMatrix(d.X)}
	if d.Y != nil {
		c.Y = append([]int(nil), d.Y...)
	}
	return c
}

// SampleLabels returns the indices of a uniform random sample containing
// frac (0 < frac <= 1) of all objects, without replacement; the sampled
// indices are the "labeled objects provided by the user" of the paper's
// Scenario I. At least two objects are always returned so that at least one
// constraint can be derived.
func (d *Dataset) SampleLabels(r *rand.Rand, frac float64) []int {
	n := d.N()
	k := int(math.Round(frac * float64(n)))
	if k < 2 {
		k = 2
	}
	if k > n {
		k = n
	}
	p := r.Perm(n)
	idx := append([]int(nil), p[:k]...)
	sort.Ints(idx)
	return idx
}
