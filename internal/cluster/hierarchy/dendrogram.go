// Package hierarchy builds cluster dendrograms. Its main entry point turns
// an OPTICS reachability plot into the density dendrogram ("OPTICSDend")
// that FOSC extracts flat clusterings from; it also provides single-linkage
// construction from raw points (used for testing the equivalence: OPTICSDend
// with MinPts = 1 is single linkage) and the tree utilities FOSC needs
// (leaf intervals, LCA queries, deterministic traversal).
package hierarchy

import (
	"fmt"
	"math"
	"sort"

	"cvcp/internal/cluster/optics"
	"cvcp/internal/linalg"
)

// Node is a dendrogram node. Leaves have Left == Right == -1 and Point set
// to an object index; internal nodes merge exactly two children at Height.
type Node struct {
	Left, Right int     // child node ids, -1 for leaves
	Parent      int     // parent node id, -1 for the root
	Height      float64 // merge height (reachability threshold); 0 for leaves
	Point       int     // object index for leaves, -1 for internal nodes
	Size        int     // number of leaves underneath
}

// Dendrogram is a rooted binary tree over n objects with 2n-1 nodes.
// Node ids 0..n-1 are the leaves for objects 0..n-1.
type Dendrogram struct {
	Nodes []Node
	Root  int
	N     int // number of objects (leaves)
}

// FromReachability converts an OPTICS result into a dendrogram: the bar at
// ordering position p (p >= 1) merges, at height Reach[p], the cluster
// containing the objects ordered before p with the cluster containing
// Order[p]. Processing the bars in ascending height order yields the density
// dendrogram equivalent to single linkage on the reachability structure.
// Infinite bars (separate density-connected components) merge last at +Inf.
//
// The bar of rank k in (height, position) order is node n+k. Every cluster
// is a run of consecutive positions, so the dendrogram is the max-Cartesian
// tree of the ranks: a bar's children are the subtrees between it and the
// nearest later-merged bar on each side, or the adjacent leaf. One stack
// pass builds it.
func FromReachability(res *optics.Result) (*Dendrogram, error) {
	n := len(res.Order)
	if n == 0 {
		return nil, fmt.Errorf("hierarchy: empty ordering")
	}
	d := &Dendrogram{N: n, Nodes: make([]Node, 2*n-1), Root: 2*n - 2}
	for p, o := range res.Order {
		if uint(o) >= uint(n) || d.Nodes[o].Size != 0 {
			return nil, fmt.Errorf("hierarchy: ordering position %d holds object %d, out of range or already ordered", p, o)
		}
		d.Nodes[o] = Node{Left: -1, Right: -1, Parent: -1, Point: o, Size: 1}
	}
	if n == 1 {
		return d, nil
	}
	rank := barRanks(res.Reach[1:n])
	// Node ids of the bars whose right subtree is still open; each merges
	// later than the one above it.
	var open []int
	for p := 1; p < n; p++ {
		id := n + int(rank[p-1])
		left := res.Order[p-1]
		for len(open) > 0 && open[len(open)-1] < id {
			left = open[len(open)-1]
			open = open[:len(open)-1]
		}
		if len(open) > 0 {
			d.Nodes[open[len(open)-1]].Right = id
		}
		d.Nodes[id] = Node{Left: left, Right: res.Order[p], Parent: -1, Height: res.Reach[p], Point: -1}
		open = append(open, id)
	}
	// A child merges before its parent, so it has the smaller id.
	for id := n; id < len(d.Nodes); id++ {
		nd := &d.Nodes[id]
		nd.Size = d.Nodes[nd.Left].Size + d.Nodes[nd.Right].Size
		d.Nodes[nd.Left].Parent = id
		d.Nodes[nd.Right].Parent = id
	}
	return d, nil
}

// barRanks returns each bar's rank in the order cmp.Compare gives their
// heights (NaN first, −0 equal to +0), ties kept in position order. A
// stable LSD radix sort over heightKey's bytes ranks them in linear time,
// skipping the bytes every key shares.
func barRanks(h []float64) []int32 {
	type bar struct {
		key uint64
		pos int32
	}
	a, b := make([]bar, len(h)), make([]bar, len(h))
	var counts [8][256]int32
	for i, v := range h {
		k := heightKey(v)
		a[i] = bar{key: k, pos: int32(i)}
		for digit := range counts {
			counts[digit][byte(k>>(8*digit))]++
		}
	}
	for digit := range counts {
		c := &counts[digit]
		shift := 8 * digit
		if int(c[byte(a[0].key>>shift)]) == len(h) {
			continue
		}
		var sum int32
		for i, k := range c {
			c[i] = sum
			sum += k
		}
		for _, x := range a {
			j := byte(x.key >> shift)
			b[c[j]] = x
			c[j]++
		}
		a, b = b, a
	}
	rank := make([]int32, len(h))
	for r, x := range a {
		rank[x.pos] = int32(r)
	}
	return rank
}

// heightKey maps a height to bits whose unsigned order is cmp.Compare's:
// every NaN to 0, −0 to +0's key, negative heights below positive ones.
func heightKey(h float64) uint64 {
	b := math.Float64bits(h)
	switch {
	case h != h:
		return 0
	case h == 0:
		return 1 << 63
	case b>>63 == 1:
		return ^b
	}
	return b | 1<<63
}

// SingleLinkage builds the single-linkage dendrogram of x under the
// Euclidean distance using a Prim-style O(n²) minimum spanning tree followed
// by sorted edge agglomeration.
func SingleLinkage(x [][]float64) (*Dendrogram, error) {
	n := len(x)
	if n == 0 {
		return nil, fmt.Errorf("hierarchy: empty dataset")
	}
	type edge struct {
		a, b int
		w    float64
	}
	inTree := make([]bool, n)
	best := make([]float64, n)
	bestTo := make([]int, n)
	for i := range best {
		best[i] = math.Inf(1)
	}
	edges := make([]edge, 0, n-1)
	cur := 0
	inTree[0] = true
	for t := 1; t < n; t++ {
		for j := 0; j < n; j++ {
			if inTree[j] {
				continue
			}
			if d := linalg.Dist(x[cur], x[j]); d < best[j] {
				best[j] = d
				bestTo[j] = cur
			}
		}
		next, nd := -1, math.Inf(1)
		for j := 0; j < n; j++ {
			if !inTree[j] && best[j] < nd {
				next, nd = j, best[j]
			}
		}
		inTree[next] = true
		edges = append(edges, edge{a: bestTo[next], b: next, w: nd})
		cur = next
	}
	sort.SliceStable(edges, func(i, j int) bool { return edges[i].w < edges[j].w })
	d := newLeaves(n)
	find := make([]int, 0, 2*n-1)
	for i := 0; i < n; i++ {
		find = append(find, i)
	}
	var root func(int) int
	root = func(v int) int {
		if find[v] == v {
			return v
		}
		find[v] = root(find[v])
		return find[v]
	}
	for _, e := range edges {
		a, b := root(e.a), root(e.b)
		id := d.merge(a, b, e.w)
		find = append(find, id)
		find[a] = id
		find[b] = id
	}
	d.Root = root(0)
	return d, nil
}

func newLeaves(n int) *Dendrogram {
	d := &Dendrogram{N: n, Nodes: make([]Node, n, 2*n-1)}
	for i := 0; i < n; i++ {
		d.Nodes[i] = Node{Left: -1, Right: -1, Parent: -1, Point: i, Size: 1}
	}
	return d
}

func (d *Dendrogram) merge(a, b int, h float64) int {
	id := len(d.Nodes)
	d.Nodes = append(d.Nodes, Node{
		Left: a, Right: b, Parent: -1, Height: h, Point: -1,
		Size: d.Nodes[a].Size + d.Nodes[b].Size,
	})
	d.Nodes[a].Parent = id
	d.Nodes[b].Parent = id
	return id
}

// PostOrder returns the node ids in post-order (children before parents),
// which is the evaluation order FOSC's dynamic program needs.
func (d *Dendrogram) PostOrder() []int {
	out := make([]int, 0, len(d.Nodes))
	type frame struct {
		id      int
		visited bool
	}
	stack := []frame{{id: d.Root}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.visited || d.Nodes[f.id].Point >= 0 {
			out = append(out, f.id)
			continue
		}
		stack = append(stack, frame{id: f.id, visited: true})
		stack = append(stack, frame{id: d.Nodes[f.id].Right})
		stack = append(stack, frame{id: d.Nodes[f.id].Left})
	}
	return out
}
