package optics

import (
	"fmt"
	"math"
	"sort"

	"cvcp/internal/linalg"
)

// VPTree is a vantage-point tree over the rows of a dataset, answering
// ε-range queries in sub-linear time for small ε instead of scanning all n
// rows. It is the neighbor index behind RunWithEps, the finite-ε OPTICS
// driver.
//
// Construction is deterministic: each subtree's vantage point is the
// lowest-index row of its subset and the remainder is split at the median
// distance (ties broken by row index), so the same dataset always yields
// the same tree. Queries touch no shared mutable state, so a built tree is
// safe for concurrent use by multiple goroutines.
//
// Range queries report a point exactly when linalg.Dist(q, x[p]) <= eps —
// the same test, on the same computed value, a brute-force scan performs —
// so the result set is identical to brute force. Subtree pruning uses the
// triangle inequality with a small conservative slack (vpPruneTol) that
// absorbs floating-point violations of the inequality; the slack can only
// admit extra node visits, never skip a qualifying point.
type VPTree struct {
	x     [][]float64
	nodes []vpNode
	root  int32
}

type vpNode struct {
	radius float64
	point  int32
	inner  int32 // subtree with d(vantage, ·) <= radius; -1 if empty
	outer  int32 // subtree with d(vantage, ·) >= radius; -1 if empty
}

// Neighbor is one ε-range query result: a row index and its exact distance
// to the query point.
type Neighbor struct {
	Index int
	Dist  float64
}

// NewVPTree builds a vantage-point tree over the rows of x. All rows must
// share one dimensionality (the same contract as Run); x is retained by
// reference and must not be mutated while the tree is in use.
func NewVPTree(x [][]float64) *VPTree {
	t := &VPTree{x: x, root: -1, nodes: make([]vpNode, 0, len(x))}
	if len(x) == 0 {
		return t
	}
	idx := make([]int32, len(x))
	for i := range idx {
		idx[i] = int32(i)
	}
	dist := make([]float64, len(x))
	t.root = t.build(idx, dist)
	return t
}

// build constructs the subtree over idx (which it reorders in place) and
// returns its node index. dist is scratch, indexed by row.
func (t *VPTree) build(idx []int32, dist []float64) int32 {
	if len(idx) == 0 {
		return -1
	}
	// Deterministic vantage: the lowest row index in the subset. idx is
	// always sorted ascending here — initially by construction, and each
	// recursive subset is re-sorted below — so that is idx[0].
	vp := idx[0]
	rest := idx[1:]
	node := int32(len(t.nodes))
	t.nodes = append(t.nodes, vpNode{point: vp, inner: -1, outer: -1})
	if len(rest) == 0 {
		return node
	}
	for _, j := range rest {
		dist[j] = linalg.Dist(t.x[vp], t.x[j])
	}
	// Median split by (distance to vantage, row index): ties cannot make
	// the split ambiguous, so the tree shape is a pure function of x.
	sort.Slice(rest, func(a, b int) bool {
		da, db := dist[rest[a]], dist[rest[b]]
		if da != db {
			return da < db
		}
		return rest[a] < rest[b]
	})
	mid := len(rest) / 2
	radius := dist[rest[mid]]
	inner, outer := rest[:mid], rest[mid:]
	// Restore ascending row order inside each half so the recursive calls
	// pick their lowest-index vantage in O(1).
	sortInt32(inner)
	sortInt32(outer)
	t.nodes[node].radius = radius
	in := t.build(inner, dist)
	out := t.build(outer, dist)
	t.nodes[node].inner = in
	t.nodes[node].outer = out
	return node
}

func sortInt32(a []int32) {
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
}

// vpPruneTol returns the slack added to the triangle-inequality pruning
// bounds. Computed distances can violate the triangle inequality by a few
// ULPs; a relative slack of ~4e-12 (about 2¹⁴ ULPs) on the magnitudes
// involved is far beyond any achievable violation, and its only cost is
// descending into a handful of extra subtrees near the boundary.
func vpPruneTol(dq, radius, eps float64) float64 {
	return 4e-12 * (dq + radius + eps)
}

// RangeInto appends every row p with linalg.Dist(q, x[p]) <= eps to
// dst[:0], sorted by row index, and returns the extended slice. Passing a
// reused buffer keeps steady-state queries allocation-free. The result is
// exactly what a brute-force scan comparing the same computed distances
// against eps produces, in the same canonical order.
func (t *VPTree) RangeInto(dst []Neighbor, q []float64, eps float64) []Neighbor {
	dst = dst[:0]
	if t.root < 0 {
		return dst
	}
	dst = t.rangeNode(dst, t.root, q, eps)
	sortNeighbors(dst)
	return dst
}

// sortNeighbors orders by row index with an in-place heapsort:
// allocation-free (sort.Slice boxes its closure), O(m log m), and indices
// are distinct so no stability concern.
func sortNeighbors(a []Neighbor) {
	for start := len(a)/2 - 1; start >= 0; start-- {
		siftNeighbors(a, start)
	}
	for end := len(a) - 1; end > 0; end-- {
		a[0], a[end] = a[end], a[0]
		siftNeighbors(a[:end], 0)
	}
}

func siftNeighbors(a []Neighbor, root int) {
	for {
		child := 2*root + 1
		if child >= len(a) {
			return
		}
		if child+1 < len(a) && a[child+1].Index > a[child].Index {
			child++
		}
		if a[root].Index >= a[child].Index {
			return
		}
		a[root], a[child] = a[child], a[root]
		root = child
	}
}

func (t *VPTree) rangeNode(dst []Neighbor, node int32, q []float64, eps float64) []Neighbor {
	nd := &t.nodes[node]
	dq := linalg.Dist(q, t.x[nd.point])
	if dq <= eps {
		dst = append(dst, Neighbor{Index: int(nd.point), Dist: dq})
	}
	tol := vpPruneTol(dq, nd.radius, eps)
	// Inner holds points with d(vp, ·) <= radius: reachable from q only if
	// dq - eps <= radius (+ slack). Outer symmetric with d >= radius.
	// Both tests are negated, so a NaN bound — +Inf − +Inf once a distance
	// overflows — visits its subtree instead of pruning it.
	if nd.inner >= 0 && !(dq > nd.radius+eps+tol) {
		dst = t.rangeNode(dst, nd.inner, q, eps)
	}
	if nd.outer >= 0 && !(dq < nd.radius-eps-tol) {
		dst = t.rangeNode(dst, nd.outer, q, eps)
	}
	return dst
}

// RunWithEps computes the OPTICS ordering of x with the given MinPts and a
// finite generating distance ε, using a vantage-point tree so each
// neighborhood query prunes distant subtrees instead of scanning all n
// rows. An object's core distance is the distance to its MinPts-th nearest
// neighbor if at least MinPts objects (counting itself) lie within ε, and
// +Inf otherwise; only ε-neighbors are reachability-updated during
// expansion, as in the original OPTICS formulation.
//
// With eps = +Inf every neighborhood is the full dataset and the result is
// bit-identical to Run (the tree visits every node, inclusion uses the
// same computed distances, and neighbors arrive in the same index order).
// That holds for distances that overflow to +Inf too: they make a pruning
// bound +Inf − +Inf, and the tree visits the subtree behind a NaN bound.
func RunWithEps(x [][]float64, minPts int, eps float64) (*Result, error) {
	n := len(x)
	if n == 0 {
		return nil, fmt.Errorf("optics: empty dataset")
	}
	if minPts < 1 {
		return nil, fmt.Errorf("optics: MinPts must be >= 1, got %d", minPts)
	}
	if math.IsNaN(eps) || eps < 0 {
		return nil, fmt.Errorf("optics: eps must be >= 0, got %v", eps)
	}
	t := NewVPTree(x)

	core := make([]float64, n)
	var nb []Neighbor
	dbuf := make([]float64, 0, n)
	// KthSmallest runs only when len(nb) >= minPts, so minPts <= n there;
	// sizing by n too keeps an oversized MinPts from allocating.
	hbuf := make([]float64, min(minPts, n))
	for i := 0; i < n; i++ {
		nb = t.RangeInto(nb, x[i], eps)
		if len(nb) < minPts {
			core[i] = math.Inf(1)
			continue
		}
		dbuf = dbuf[:0]
		for _, p := range nb {
			dbuf = append(dbuf, p.Dist)
		}
		core[i] = linalg.KthSmallest(dbuf, minPts-1, hbuf)
	}

	processed := make([]bool, n)
	order := make([]int, 0, n)
	reach := make([]float64, 0, n)
	h := newHeap(n)
	for start := 0; start < n; start++ {
		if processed[start] {
			continue
		}
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
			nb = t.RangeInto(nb, x[i], eps)
			for _, p := range nb {
				if processed[p.Index] {
					continue
				}
				nr := math.Max(core[i], p.Dist)
				h.pushOrDecrease(p.Index, nr)
			}
		}
	}
	return &Result{Order: order, Reach: reach, Core: core}, nil
}
