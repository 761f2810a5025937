// Package copkmeans implements COP-KMeans (Wagstaff, Cardie, Rogers &
// Schrödl, "Constrained K-means Clustering with Background Knowledge", ICML
// 2001) — the classic hard-constraint k-means the paper cites as [38]. The
// paper's future work calls for studying CVCP with further semi-supervised
// clustering methods; COP-KMeans is the natural third method: unlike
// MPCK-Means it never violates a constraint — a point is assigned to the
// nearest centroid whose cluster breaks no must-link or cannot-link, and the
// run fails if no consistent assignment exists. The centroids are seeded
// with k-means++ (Arthur & Vassilvitskii, SODA 2007).
package copkmeans

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"cvcp/internal/constraints"
	"cvcp/internal/linalg"
)

// Config controls a COP-KMeans run.
type Config struct {
	K       int   // number of clusters (required)
	MaxIter int   // Lloyd iterations; 0 means 100
	Seed    int64 // seeding RNG
}

// Result is a finished COP-KMeans clustering.
type Result struct {
	Labels    []int
	Centers   [][]float64
	Objective float64
	Iters     int
}

// ErrInfeasible is wrapped by Run when no constraint-consistent assignment
// exists for some object (e.g. more mutually cannot-linked must-link
// components than clusters).
var ErrInfeasible = fmt.Errorf("copkmeans: constraints unsatisfiable")

// seedPlusPlus selects k initial centers with the k-means++ D² weighting.
func seedPlusPlus(r *rand.Rand, x [][]float64, k int) [][]float64 {
	n := len(x)
	centers := make([][]float64, 0, k)
	centers = append(centers, linalg.Clone(x[r.Intn(n)]))
	d2 := make([]float64, n)
	for i := range d2 {
		d2[i] = linalg.SqDist(x[i], centers[0])
	}
	for len(centers) < k {
		var total float64
		for _, d := range d2 {
			total += d
		}
		var next int
		if total <= 0 {
			next = r.Intn(n) // all points coincide with some center
		} else {
			target := r.Float64() * total
			cum := 0.0
			next = n - 1
			for i, d := range d2 {
				cum += d
				if cum >= target {
					next = i
					break
				}
			}
		}
		c := linalg.Clone(x[next])
		centers = append(centers, c)
		for i := range d2 {
			if d := linalg.SqDist(x[i], c); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centers
}

// Run clusters x into cfg.K clusters without violating any constraint in
// cons. Must-link components are assigned atomically; a cannot-link blocks a
// component from joining a cluster that already contains an antagonist.
func Run(x [][]float64, cons *constraints.Set, cfg Config) (*Result, error) {
	n := len(x)
	if n == 0 {
		return nil, fmt.Errorf("copkmeans: empty dataset")
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("copkmeans: K must be >= 1, got %d", cfg.K)
	}
	if cfg.K > n {
		return nil, fmt.Errorf("copkmeans: K=%d exceeds %d objects", cfg.K, n)
	}
	if cons == nil {
		cons = constraints.NewSet()
	}
	closed, err := constraints.Closure(cons)
	if err != nil {
		return nil, err
	}
	maxIter := cfg.MaxIter
	if maxIter <= 0 {
		maxIter = 100
	}

	// Group objects into must-link components; unconstrained objects are
	// singletons. Each component moves as a unit.
	compOf := make([]int, n)
	for i := range compOf {
		compOf[i] = -1
	}
	var comps [][]int
	for _, members := range constraints.MustLinkComponents(closed) {
		for _, o := range members {
			compOf[o] = len(comps)
		}
		comps = append(comps, members)
	}
	for i := 0; i < n; i++ {
		if compOf[i] == -1 {
			compOf[i] = len(comps)
			comps = append(comps, []int{i})
		}
	}
	// Component-level cannot-link adjacency.
	clAdj := make([][]int, len(comps))
	seen := map[[2]int]bool{}
	for _, p := range closed.CannotLinks() {
		a, b := compOf[p.A], compOf[p.B]
		if a == b {
			return nil, fmt.Errorf("%w: cannot-link inside a must-link component", ErrInfeasible)
		}
		key := [2]int{min(a, b), max(a, b)}
		if seen[key] {
			continue
		}
		seen[key] = true
		clAdj[a] = append(clAdj[a], b)
		clAdj[b] = append(clAdj[b], a)
	}

	r := rand.New(rand.NewSource(cfg.Seed))
	centers := seedPlusPlus(r, x, cfg.K)
	dim := len(x[0])
	labels := make([]int, n)
	compLabel := make([]int, len(comps))
	iters := 0
	for ; iters < maxIter; iters++ {
		for i := range compLabel {
			compLabel[i] = -1
		}
		// Assign components in order of decreasing size, then by index:
		// big must-link groups claim their clusters first, which makes the
		// greedy feasibility search far more robust (and deterministic).
		order := make([]int, len(comps))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			if len(comps[order[a]]) != len(comps[order[b]]) {
				return len(comps[order[a]]) > len(comps[order[b]])
			}
			return order[a] < order[b]
		})
		for _, ci := range order {
			members := comps[ci]
			bestC, bestD := -1, math.Inf(1)
			for c := 0; c < cfg.K; c++ {
				if blocked(ci, c, clAdj, compLabel) {
					continue
				}
				var d float64
				for _, o := range members {
					d += linalg.SqDist(x[o], centers[c])
				}
				if d < bestD {
					bestC, bestD = c, d
				}
			}
			if bestC == -1 {
				return nil, fmt.Errorf("%w: no admissible cluster for a component of size %d with K=%d",
					ErrInfeasible, len(members), cfg.K)
			}
			compLabel[ci] = bestC
		}
		changed := false
		for i := 0; i < n; i++ {
			if l := compLabel[compOf[i]]; labels[i] != l {
				labels[i] = l
				changed = true
			}
		}
		// Mean update.
		counts := make([]int, cfg.K)
		for c := range centers {
			for j := 0; j < dim; j++ {
				centers[c][j] = 0
			}
		}
		for i, p := range x {
			counts[labels[i]]++
			linalg.AXPY(centers[labels[i]], 1, p)
		}
		for c := range centers {
			if counts[c] == 0 {
				centers[c] = linalg.Clone(x[r.Intn(n)])
				continue
			}
			linalg.Scale(centers[c], 1/float64(counts[c]), centers[c])
		}
		if !changed && iters > 0 {
			break
		}
	}
	var obj float64
	for i, p := range x {
		obj += linalg.SqDist(p, centers[labels[i]])
	}
	return &Result{Labels: labels, Centers: centers, Objective: obj, Iters: iters}, nil
}

func blocked(ci, cluster int, clAdj [][]int, compLabel []int) bool {
	for _, other := range clAdj[ci] {
		if compLabel[other] == cluster {
			return true
		}
	}
	return false
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
