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
// when the dataset has fewer than MinPts objects. Coordinates must not be
// NaN (datasets reject them), since the order on NaN distances is not
// defined; coordinates whose distances overflow to +Inf are fine.
func Run(x [][]float64, minPts int) (*Result, error) {
	return run(len(x), minPts, func(dst []float64, i int) {
		xi := x[i]
		for j := range x {
			dst[j] = linalg.Dist(xi, x[j])
		}
	}, nil)
}

// RunWithMatrix is Run with distance evaluations replaced by lookups into a
// precomputed pairwise matrix. A MinPts sweep over the same data (the CVCP
// candidate grid) shares one matrix instead of recomputing every pairwise
// distance per MinPts value; dm entries come from linalg.Dist, so the
// ordering is bit-identical to Run's (for float32 matrices, bit-identical
// to running on the rounded entries).
//
// The runs of a sweep share their core distances too: from the second
// run on a matrix with 1 < MinPts <= linalg.NearestWidth, each object's
// core distance is read from the matrix's nearest-distance table, whose
// row the first run to pop the object fills. The table holds the values
// the per-row selection returns, so results are the same bits.
func RunWithMatrix(dm *linalg.DistMatrix, minPts int) (*Result, error) {
	var near *linalg.Nearest
	if 1 < minPts && minPts <= min(dm.N(), linalg.NearestWidth) {
		near = dm.Nearest()
	}
	return run(dm.N(), minPts, func(dst []float64, i int) { dm.RowInto(dst, i) }, near)
}

// run is the dense (ε = ∞) driver. rowInto materializes the distances
// from object i to every object into a reused buffer; for the condensed
// matrices that is DistMatrix.RowInto's two-stride walk. Each object's row
// is materialized once, when it is popped, and its expansion reads it.
// Its core distance is read from near, the matrix's nearest-distance
// table, which fills the object's entries from that row if no run has;
// without a table, or while another run fills those entries, it is
// selected from the row.
//
// With ε = ∞ the first core object to expand queues every unprocessed
// object, and an object leaves the seed list only when it is popped, so
// from then on the seed list is exactly the unprocessed set. run keeps
// that set flat, in ids with their reachability keys in keys, instead of
// in an indexed heap. One pass per pop lowers each key to
// max(core, distance) when that is strictly smaller and tracks the
// minimum by (key, index), the heap's order, so ties go to the lowest
// index. Every key starts at +Inf, so until a core object has expanded
// the lowest-index unprocessed object is popped next with reachability
// +Inf: each object starts its own walk, in index order. Distances that
// overflow to +Inf are keys like any other.
func run(n, minPts int, rowInto func(dst []float64, i int), near *linalg.Nearest) (*Result, error) {
	if n == 0 {
		return nil, fmt.Errorf("optics: empty dataset")
	}
	if minPts < 1 {
		return nil, fmt.Errorf("optics: MinPts must be >= 1, got %d", minPts)
	}
	res := &Result{Order: make([]int, 0, n), Reach: make([]float64, 0, n), Core: make([]float64, n)}
	if minPts > n {
		// No object is a core object: each starts its own walk.
		for i := range res.Core {
			res.Order = append(res.Order, i)
			res.Reach = append(res.Reach, math.Inf(1))
			res.Core[i] = math.Inf(1)
		}
		return res, nil
	}
	row := make([]float64, n)
	kbuf := make([]float64, minPts) // minPts <= n past the early return
	ids := make([]int, n)
	keys := make([]float64, n)
	for j := range ids {
		ids[j], keys[j] = j, math.Inf(1)
	}
	next := 0 // position in ids of the object popped next
	for len(ids) > 0 {
		i, r := ids[next], keys[next]
		last := len(ids) - 1
		ids[next], keys[next] = ids[last], keys[last]
		ids, keys = ids[:last], keys[:last]
		res.Order = append(res.Order, i)
		res.Reach = append(res.Reach, r)

		rowInto(row, i)
		core := 0.0 // MinPts 1: the object itself
		if nearest := near.Row(i, row); nearest != nil {
			core = nearest[minPts-1]
		} else if minPts > 1 {
			core = linalg.KthSmallest(row, minPts-1, kbuf)
		}
		res.Core[i] = core

		next = 0
		minKey, minID := math.Inf(1), n
		for s, j := range ids {
			k := keys[s]
			// max(core, d) < k exactly when d < k and core < k; most
			// entries fail the first test, so the max is rarely taken.
			if d := row[j]; d < k && core < k {
				k = max(core, d)
				keys[s] = k
			}
			if k < minKey || k == minKey && j < minID {
				next, minKey, minID = s, k, j
			}
		}
	}
	return res, nil
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
