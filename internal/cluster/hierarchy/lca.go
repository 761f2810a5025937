package hierarchy

import "math/bits"

// LCA answers lowest-common-ancestor queries on a dendrogram in O(1) after
// O(n log n) preprocessing. An in-order walk of a binary dendrogram
// alternates leaves and internal nodes, so its n−1 internal nodes are the
// separators between consecutive leaves. The LCA of the leaves at in-order
// ranks i < j is the separator among i..j−1 that is an ancestor of all the
// others there, so it comes first among them in pre-order. A sparse table
// answers that range minimum over pre-order numbers. FOSC uses it to find,
// for every constraint (a, b), the dendrogram node at which the two
// objects first merge.
type LCA struct {
	rank []int32 // in-order rank per leaf node id
	node []int32 // internal node id per pre-order number
	// sparse[l][i] is the smallest pre-order number among separators
	// i..i+2^l−1.
	sparse [][]int32
}

// NewLCA preprocesses d for constant-time LCA queries.
func NewLCA(d *Dendrogram) *LCA {
	l := &LCA{rank: make([]int32, d.N), node: make([]int32, 0, d.N-1)}
	seps := make([]int32, 0, d.N-1)
	var stack []int32 // pre-order numbers of the internal nodes whose right subtree is pending
	id := d.Root
	for {
		// An iterative in-order walk reaches every internal node in
		// pre-order on its way down.
		for d.Nodes[id].Point < 0 {
			stack = append(stack, int32(len(l.node)))
			l.node = append(l.node, int32(id))
			id = d.Nodes[id].Left
		}
		l.rank[id] = int32(len(seps))
		if len(stack) == 0 {
			break
		}
		pre := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		seps = append(seps, pre)
		id = d.Nodes[l.node[pre]].Right
	}

	m := len(seps)
	levels := bits.Len(uint(m))
	size := 0
	for lev := 1; lev < levels; lev++ {
		size += m - 1<<lev + 1
	}
	backing := make([]int32, size)
	l.sparse = make([][]int32, levels)
	if levels > 0 {
		l.sparse[0] = seps
	}
	for lev := 1; lev < levels; lev++ {
		prev, half := l.sparse[lev-1], 1<<(lev-1)
		cur := backing[:m-1<<lev+1]
		backing = backing[len(cur):]
		for i := range cur {
			cur[i] = min(prev[i], prev[i+half])
		}
		l.sparse[lev] = cur
	}
	return l
}

// Query returns the node id of the lowest common ancestor of objects a and b
// (object indices, i.e. leaf node ids).
func (l *LCA) Query(a, b int) int {
	if a == b {
		return a
	}
	i, j := int(l.rank[a]), int(l.rank[b])
	if i > j {
		i, j = j, i
	}
	// Separators i..j−1, covered by two possibly overlapping windows.
	lev := bits.Len(uint(j-i)) - 1
	return int(l.node[min(l.sparse[lev][i], l.sparse[lev][j-1<<lev])])
}
