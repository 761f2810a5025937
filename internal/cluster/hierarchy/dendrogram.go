// Package hierarchy builds cluster dendrograms. Its main entry point turns
// an OPTICS reachability plot into the density dendrogram ("OPTICSDend")
// that FOSC extracts flat clusterings from; it also provides single-linkage
// construction from raw points (used for testing the equivalence: OPTICSDend
// with MinPts = 1 is single linkage) and the tree utilities FOSC needs
// (leaf intervals, LCA queries, deterministic traversal).
package hierarchy

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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
func FromReachability(res *optics.Result) (*Dendrogram, error) {
	n := len(res.Order)
	if n == 0 {
		return nil, fmt.Errorf("hierarchy: empty ordering")
	}
	type bar struct {
		pos int
		h   float64
	}
	bars := make([]bar, 0, n-1)
	for p := 1; p < n; p++ {
		bars = append(bars, bar{pos: p, h: res.Reach[p]})
	}
	// Positions are distinct, so (height, position) orders the bars
	// totally and the sort need not be stable.
	slices.SortFunc(bars, func(a, b bar) int {
		return cmp.Or(cmp.Compare(a.h, b.h), a.pos-b.pos)
	})
	d := newLeaves(n)
	// Union-find over current dendrogram roots.
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
	for _, b := range bars {
		a := root(res.Order[b.pos-1])
		c := root(res.Order[b.pos])
		if a == c {
			return nil, fmt.Errorf("hierarchy: ordering positions %d and %d already merged", b.pos-1, b.pos)
		}
		id := d.merge(a, c, b.h)
		find = append(find, id)
		find[a] = id
		find[c] = id
	}
	d.Root = root(res.Order[0])
	return d, nil
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
