package linalg

import "sync/atomic"

// NearestWidth is how many of each row's smallest entries a matrix's
// nearest-distance table keeps: the largest MinPts of the selection
// engine's default grid (cvcp.DefaultMinPtsRange), so every OPTICS run of
// a default FOSC-OPTICSDend sweep reads its core distances from the table.
const NearestWidth = 24

// Nearest is a matrix's table of each row's smallest entries: row i holds
// the min(n, NearestWidth) smallest distances from object i, its own zero
// included, in ascending order, so entry k is the value sort would put at
// index k of row i: object i's core distance at MinPts k+1. The table
// holds n·NearestWidth floats against the matrix's n(n−1)/2.
//
// Rows are filled lazily by whichever caller reaches them first (see
// Row), so concurrent OPTICS runs on one cached matrix share the work
// without waiting for each other.
type Nearest struct {
	w     int
	state []atomic.Uint32 // per row: rowEmpty, rowFilling or rowReady
	vals  []float64       // row i at vals[i*w : (i+1)*w]
}

// The states of a table row. A row is claimed by the one caller that
// moves it from rowEmpty to rowFilling, and published by its move to
// rowReady: the atomic store orders the row's values before every load
// that sees rowReady.
const (
	rowEmpty uint32 = iota
	rowFilling
	rowReady
)

// Nearest returns the matrix's nearest-distance table, or nil to the
// first caller. Each OPTICS run that wants core distances the table
// covers asks once, so a matrix serving a single MinPts (a refit) never
// allocates or fills a table; the second and later runs share one.
func (m *DistMatrix) Nearest() *Nearest {
	if m.nearestUses.Add(1) == 1 {
		return nil
	}
	m.nearestOnce.Do(func() {
		w := min(m.n, NearestWidth)
		m.nearest = &Nearest{w: w, state: make([]atomic.Uint32, m.n), vals: make([]float64, m.n*w)}
	})
	return m.nearest
}

// Row returns the smallest entries of row i in ascending order. dists
// must be row i of the matrix, as RowInto materializes it: the first
// caller to reach row i selects the entries from dists and publishes
// them. Row returns nil while another caller is filling the row, and a
// nil table has no rows: callers never wait, and select from dists
// themselves.
func (t *Nearest) Row(i int, dists []float64) []float64 {
	if t == nil {
		return nil
	}
	r := t.vals[i*t.w : (i+1)*t.w : (i+1)*t.w]
	s := &t.state[i]
	if s.Load() == rowReady {
		return r
	}
	if !s.CompareAndSwap(rowEmpty, rowFilling) {
		return nil
	}
	smallestInto(r, dists)
	s.Store(rowReady)
	return r
}

// KthSmallest returns the k-th smallest value of a (0-indexed), the value
// sort would put at index k, for 0 <= k < len(a); a is left unchanged.
// buf needs length k+1; its contents are overwritten.
func KthSmallest(a []float64, k int, buf []float64) float64 {
	h := buf[:k+1]
	heapSmallest(h, a)
	return h[0]
}

// smallestInto sets dst to the len(dst) smallest values of a, for
// 0 < len(dst) <= len(a), in ascending order.
func smallestInto(dst, a []float64) {
	heapSmallest(dst, a)
	for end := len(dst) - 1; end > 0; end-- {
		dst[0], dst[end] = dst[end], dst[0]
		siftDownMax(dst[:end], 0)
	}
}

// heapSmallest leaves the len(h) smallest values of a in h, for
// 0 < len(h) <= len(a), as a max-heap: an entry of a no smaller than the
// heap's top costs one comparison.
func heapSmallest(h, a []float64) {
	k := len(h)
	copy(h, a[:k])
	for i := k/2 - 1; i >= 0; i-- {
		siftDownMax(h, i)
	}
	for _, v := range a[k:] {
		if v < h[0] {
			h[0] = v
			siftDownMax(h, 0)
		}
	}
}

// siftDownMax restores the max-heap order of h below position i.
func siftDownMax(h []float64, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] > h[c] {
			c++
		}
		if !(h[c] > h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
