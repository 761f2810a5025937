// Package fosc implements the semi-supervised instantiation of FOSC — the
// Framework for Optimal Selection of Clusters from cluster hierarchies
// (Campello, Moulavi, Zimek & Sander, "A framework for semi-supervised and
// unsupervised optimal extraction of clusters from hierarchies", Data Mining
// and Knowledge Discovery 27(3), 2013). Combined with the OPTICS density
// dendrogram from internal/cluster/hierarchy it yields FOSC-OPTICSDend, the
// density-based semi-supervised clustering method the paper evaluates CVCP
// with: the parameter under selection is OPTICS's MinPts.
//
// FOSC selects, among all flat clusterings that can be assembled from
// dendrogram nodes (a set of nodes such that no node is an ancestor of
// another; objects under no selected node are noise), one that maximizes the
// total satisfaction of the given must-link and cannot-link constraints. A
// constraint is satisfied when a must-linked pair shares a selected cluster,
// or a cannot-linked pair does not (noise objects belong to no cluster).
//
// The maximization decomposes over endpoints: each endpoint's contribution
// depends only on the cluster (or noise status) of that endpoint, so a
// bottom-up dynamic program over the dendrogram finds the global optimum in
// O(#nodes + #constraints·log n) using LCA queries to locate, for every
// constraint, the node where its endpoints first merge.
package fosc

import (
	"fmt"

	"cvcp/internal/cluster/hierarchy"
	"cvcp/internal/constraints"
)

// Config controls cluster extraction.
type Config struct {
	// MinClusterSize is the smallest dendrogram node selectable as a
	// cluster; nodes below it can only be noise (unless covered by a
	// selected ancestor). 0 means 2. FOSC-OPTICSDend conventionally sets it
	// to MinPts.
	MinClusterSize int
	// AllowRootCluster permits selecting the dendrogram root (all objects
	// as one cluster). FOSC excludes it by default: the root is "no
	// clustering at all".
	AllowRootCluster bool
}

// Result is an extracted flat clustering.
type Result struct {
	// Labels assigns each object a cluster in [0, NumClusters), or -1 for
	// noise.
	Labels []int
	// NumClusters is the number of selected clusters.
	NumClusters int
	// Satisfaction is the number of constraints satisfied by the solution;
	// Total is the number of constraints given. Satisfaction maximality is
	// the DP's guarantee.
	Satisfaction float64
	Total        int
	// SelectedNodes are the dendrogram node ids chosen as clusters.
	SelectedNodes []int
}

// Extract selects the constraint-optimal flat clustering from the
// dendrogram. cons may be empty, in which case every solution ties and the
// coarsest admissible one (the root's children) is returned.
func Extract(d *hierarchy.Dendrogram, cons *constraints.Set, cfg Config) (*Result, error) {
	if d == nil || len(d.Nodes) == 0 {
		return nil, fmt.Errorf("fosc: empty dendrogram")
	}
	if cons == nil {
		cons = constraints.NewSet()
	}
	if err := cons.Validate(); err != nil {
		return nil, err
	}
	minSize := cfg.MinClusterSize
	if minSize <= 0 {
		minSize = 2
	}

	nNodes := len(d.Nodes)
	mlIn := make([]float64, nNodes)  // ML constraints fully inside the node
	clIn := make([]float64, nNodes)  // CL constraints fully inside the node
	clInc := make([]float64, nNodes) // CL endpoint count inside the node

	ml := cons.MustLinks()
	cl := cons.CannotLinks()
	if len(ml)+len(cl) > 0 {
		lca := hierarchy.NewLCA(d)
		for _, p := range ml {
			mlIn[lca.Query(p.A, p.B)]++
		}
		for _, p := range cl {
			clIn[lca.Query(p.A, p.B)]++
			clInc[p.A]++
			clInc[p.B]++
		}
	}

	post := d.PostOrder()
	// Accumulate subtree sums: children precede parents in post-order.
	for _, id := range post {
		nd := d.Nodes[id]
		if nd.Point >= 0 {
			continue
		}
		mlIn[id] += mlIn[nd.Left] + mlIn[nd.Right]
		clIn[id] += clIn[nd.Left] + clIn[nd.Right]
		clInc[id] += clInc[nd.Left] + clInc[nd.Right]
	}

	// DP over nodes. best[id] is twice the maximal satisfied-constraint
	// count achievable for the objects under id, counting each constraint
	// once per endpoint under id; selected[id] records whether taking id as
	// a cluster achieves it.
	best := make([]float64, nNodes)
	selected := make([]bool, nNodes)
	hasSel := make([]bool, nNodes) // any selection in the subtree
	for _, id := range post {
		nd := d.Nodes[id]
		// value of the subtree when id itself is one flat cluster
		asCluster := 2*mlIn[id] + clInc[id] - 2*clIn[id]
		switch {
		case nd.Point >= 0: // leaf
			if minSize <= 1 && (cfg.AllowRootCluster || id != d.Root) {
				// Singleton clusters allowed: same endpoint view as noise
				// for CL, and ML still violated, so values coincide.
				best[id] = clInc[id]
				selected[id] = true
			} else {
				best[id] = clInc[id] // noise
			}
		case nd.Size < minSize:
			best[id] = clInc[id] // too small: all noise
		default:
			childSum := best[nd.Left] + best[nd.Right]
			// On a strict improvement the constraints decide. On a tie the
			// geometry decides: expand to the parent only when its merge
			// height is comparable to the structure below (within a factor
			// of 2), never across a density gap — otherwise a far-away
			// point would be swallowed into a cluster without evidence.
			maxChildH := childHeight(d, nd.Left)
			if h := childHeight(d, nd.Right); h > maxChildH {
				maxChildH = h
			}
			tieOK := nd.Height <= 2*maxChildH || maxChildH == 0 && !(hasSel[nd.Left] || hasSel[nd.Right])
			take := asCluster > childSum || (asCluster == childSum && tieOK)
			if take && (cfg.AllowRootCluster || id != d.Root) {
				best[id] = asCluster
				selected[id] = true
			} else {
				best[id] = childSum
			}
		}
		hasSel[id] = selected[id] || (nd.Point < 0 && (hasSel[nd.Left] || hasSel[nd.Right]))
	}

	res := &Result{
		Labels: make([]int, d.N),
		Total:  cons.Len(),
	}
	for i := range res.Labels {
		res.Labels[i] = -1
	}
	// Top-down: materialize the highest selected nodes, labeling each
	// one's leaves through a second stack.
	stack := []int{d.Root}
	var sub []int
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := d.Nodes[id]
		if selected[id] {
			lab := res.NumClusters
			res.NumClusters++
			res.SelectedNodes = append(res.SelectedNodes, id)
			sub = append(sub[:0], id)
			for len(sub) > 0 {
				v := d.Nodes[sub[len(sub)-1]]
				sub = sub[:len(sub)-1]
				if v.Point >= 0 {
					res.Labels[v.Point] = lab
				} else {
					sub = append(sub, v.Left, v.Right)
				}
			}
			continue
		}
		if nd.Point >= 0 || nd.Size < minSize {
			continue // noise
		}
		stack = append(stack, nd.Right, nd.Left)
	}
	res.Satisfaction = countSatisfied(res.Labels, cons)
	return res, nil
}

// childHeight returns the merge height of a node, or 0 for leaves.
func childHeight(d *hierarchy.Dendrogram, id int) float64 {
	if d.Nodes[id].Point >= 0 {
		return 0
	}
	return d.Nodes[id].Height
}

// countSatisfied returns the number of constraints satisfied by the labeling
// (noise = -1 belongs to no cluster).
func countSatisfied(labels []int, cons *constraints.Set) float64 {
	var s float64
	for _, p := range cons.MustLinks() {
		if labels[p.A] >= 0 && labels[p.A] == labels[p.B] {
			s++
		}
	}
	for _, p := range cons.CannotLinks() {
		if labels[p.A] < 0 || labels[p.A] != labels[p.B] {
			s++
		}
	}
	return s
}
