// Package optics implements the OPTICS density-based cluster ordering
// (Ankerst, Breunig, Kriegel & Sander, SIGMOD 1999) with ε = ∞, which is the
// variant the FOSC-OPTICSDend method consumes: the full reachability plot
// parameterized only by MinPts.
package optics

import (
	"fmt"
	"math"

	"cvcp/internal/linalg"
)

// Result is an OPTICS ordering. Order[p] is the index of the p-th object in
// the ordering; Reach[p] is the reachability distance of that object at the
// moment it was reached (math.Inf(1) for the first object of each walk);
// Core[i] is the core distance of object i (indexed by object, not by
// position).
type Result struct {
	Order []int
	Reach []float64
	Core  []float64
}

// Run computes the OPTICS ordering of x with the given MinPts and ε = ∞.
// The core distance of object i is the distance to its MinPts-th nearest
// neighbor counting the object itself (the DBSCAN convention); it is +Inf
// when the dataset has fewer than MinPts objects.
func Run(x [][]float64, minPts int) (*Result, error) {
	rowInto := func(dst []float64, i int) {
		xi := x[i]
		for j := range x {
			dst[j] = linalg.Dist(xi, x[j])
		}
	}
	return run(len(x), minPts, func(i, j int) float64 { return linalg.Dist(x[i], x[j]) }, rowInto)
}

// RunWithMatrix is Run with distance evaluations replaced by lookups into a
// precomputed pairwise matrix. A MinPts sweep over the same data (the CVCP
// candidate grid) shares one matrix instead of recomputing every pairwise
// distance per MinPts value; dm entries come from linalg.Dist, so the
// ordering is bit-identical to Run's (for float32 matrices, bit-identical
// to running on the rounded entries).
func RunWithMatrix(dm *linalg.DistMatrix, minPts int) (*Result, error) {
	return run(dm.N(), minPts, dm.At, func(dst []float64, i int) { dm.RowInto(dst, i) })
}

// run is the dense (ε = ∞) driver. dist answers point lookups during
// expansion; rowInto materializes a full distance row into a reused buffer
// for the core-distance pass — for condensed matrices this is a linear
// two-stride walk (DistMatrix.RowInto) instead of n branchy At calls, and
// it never allocates.
func run(n, minPts int, dist func(i, j int) float64, rowInto func(dst []float64, i int)) (*Result, error) {
	if n == 0 {
		return nil, fmt.Errorf("optics: empty dataset")
	}
	if minPts < 1 {
		return nil, fmt.Errorf("optics: MinPts must be >= 1, got %d", minPts)
	}

	core := coreDistances(n, minPts, rowInto)
	processed := make([]bool, n)
	order := make([]int, 0, n)
	reach := make([]float64, 0, n)

	h := newHeap(n)
	for start := 0; start < n; start++ {
		if processed[start] {
			continue
		}
		// Begin a new walk at the first unprocessed object.
		h.push(start, math.Inf(1))
		for h.len() > 0 {
			i, r := h.pop()
			if processed[i] {
				continue
			}
			processed[i] = true
			order = append(order, i)
			reach = append(reach, r)
			if math.IsInf(core[i], 1) {
				continue // not a core object: cannot expand
			}
			for j := 0; j < n; j++ {
				if processed[j] {
					continue
				}
				nr := math.Max(core[i], dist(i, j))
				h.pushOrDecrease(j, nr)
			}
		}
	}
	return &Result{Order: order, Reach: reach, Core: core}, nil
}

// coreDistances returns, for every object, the distance to its minPts-th
// nearest neighbor (the object itself counts as the first). kthSmallest
// selects the minPts-th smallest row entry through a bounded heap of
// minPts values, one buffer reused for every row.
func coreDistances(n, minPts int, rowInto func(dst []float64, i int)) []float64 {
	core := make([]float64, n)
	if minPts > n {
		for i := range core {
			core[i] = math.Inf(1)
		}
		return core
	}
	if minPts == 1 {
		return core // distance to itself
	}
	d := make([]float64, n)
	h := make([]float64, minPts)
	for i := 0; i < n; i++ {
		rowInto(d, i)
		core[i] = kthSmallest(d, minPts-1, h)
	}
	return core
}

// kthSmallest returns the k-th smallest value of a (0-indexed), the value
// sort would put at index k, for 0 <= k < len(a); a is left unchanged.
// It keeps the k+1 smallest values seen so far in a max-heap held in
// buf[:k+1] (buf needs that length; its contents are overwritten), so
// an entry no smaller than the heap's top costs one comparison.
func kthSmallest(a []float64, k int, buf []float64) float64 {
	h := buf[:k+1]
	copy(h, a[:k+1])
	for i := k / 2; i >= 0; i-- {
		siftDownMax(h, i)
	}
	for _, v := range a[k+1:] {
		if v < h[0] {
			h[0] = v
			siftDownMax(h, 0)
		}
	}
	return h[0]
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

// heap is an indexed min-heap over object indices keyed by reachability,
// with decrease-key support. Ties are broken by object index so the ordering
// is deterministic.
type heap struct {
	keys []float64 // key per object; NaN when absent
	pos  []int     // heap position per object; -1 when absent
	heap []int     // object indices
}

func newHeap(n int) *heap {
	h := &heap{keys: make([]float64, n), pos: make([]int, n)}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

func (h *heap) len() int { return len(h.heap) }

func (h *heap) less(a, b int) bool {
	ia, ib := h.heap[a], h.heap[b]
	if h.keys[ia] != h.keys[ib] {
		return h.keys[ia] < h.keys[ib]
	}
	return ia < ib
}

func (h *heap) swap(a, b int) {
	h.heap[a], h.heap[b] = h.heap[b], h.heap[a]
	h.pos[h.heap[a]] = a
	h.pos[h.heap[b]] = b
}

func (h *heap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *heap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.heap) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h.heap) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

func (h *heap) push(i int, key float64) {
	h.keys[i] = key
	h.pos[i] = len(h.heap)
	h.heap = append(h.heap, i)
	h.up(h.pos[i])
}

// pushOrDecrease inserts i with the given key, or lowers its key if i is
// already queued with a larger one.
func (h *heap) pushOrDecrease(i int, key float64) {
	if h.pos[i] < 0 {
		h.push(i, key)
		return
	}
	if key < h.keys[i] {
		h.keys[i] = key
		h.up(h.pos[i])
	}
}

func (h *heap) pop() (int, float64) {
	top := h.heap[0]
	h.swap(0, len(h.heap)-1)
	h.heap = h.heap[:len(h.heap)-1]
	h.pos[top] = -1
	if len(h.heap) > 0 {
		h.down(0)
	}
	return top, h.keys[top]
}
