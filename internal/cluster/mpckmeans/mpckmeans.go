// Package mpckmeans implements MPCK-Means — Metric Pairwise Constrained
// K-Means (Bilenko, Basu & Mooney, "Integrating constraints and metric
// learning in semi-supervised clustering", ICML 2004) — the partitional
// semi-supervised clustering method the paper evaluates CVCP with.
//
// The implementation follows the EM formulation of the original with
// per-cluster diagonal metrics:
//
//	J = Σ_i (‖x_i − μ_{l_i}‖²_{A_{l_i}} − log det A_{l_i})
//	  + Σ_{(i,j)∈ML, l_i≠l_j} w · ½(‖x_i−x_j‖²_{A_{l_i}} + ‖x_i−x_j‖²_{A_{l_j}})
//	  + Σ_{(i,j)∈CL, l_i=l_j} w · (D²_{A_{l_i}} − ‖x_i−x_j‖²_{A_{l_i}})
//
// where D_{A} is the metric-scaled data diameter (the maximal separation
// term of the original, computed from the per-dimension data range). Cluster
// initialization uses the neighborhoods induced by the transitive closure of
// the must-link constraints, exactly as in the original: neighborhood
// centroids seed up to K clusters via farthest-first traversal weighted by
// neighborhood size, topped up with k-means++ when fewer than K
// neighborhoods exist.
package mpckmeans

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"cvcp/internal/constraints"
	"cvcp/internal/linalg"
)

// Config controls an MPCK-Means run.
type Config struct {
	K           int     // number of clusters (required)
	MaxIter     int     // EM iterations; 0 means 50
	Seed        int64   // RNG seed for initialization and assignment order
	Weight      float64 // constraint violation weight w; 0 means 1
	LearnMetric bool    // enable per-cluster diagonal metric learning (the "M" in MPCK)
}

// Result is a finished MPCK-Means clustering.
type Result struct {
	Labels    []int
	Centers   [][]float64
	Metrics   [][]float64 // per-cluster diagonal metric weights
	Objective float64
	Iters     int
}

// Run clusters x into cfg.K clusters guided by the constraint set cons.
// cons may be nil or empty, in which case the algorithm degenerates to
// k-means with metric learning.
func Run(x [][]float64, cons *constraints.Set, cfg Config) (*Result, error) {
	n := len(x)
	if n == 0 {
		return nil, fmt.Errorf("mpckmeans: empty dataset")
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("mpckmeans: K must be >= 1, got %d", cfg.K)
	}
	if cfg.K > n {
		return nil, fmt.Errorf("mpckmeans: K=%d exceeds %d objects", cfg.K, n)
	}
	dim := len(x[0])
	maxIter := cfg.MaxIter
	if maxIter <= 0 {
		maxIter = 50
	}
	w := cfg.Weight
	if w == 0 {
		w = 1
	}
	if cons == nil {
		cons = constraints.NewSet()
	}
	if err := cons.Validate(); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(cfg.Seed))

	ml, cl := cons.MustLinks(), cons.CannotLinks()
	mlAdj, err := adjacency(ml, n)
	if err != nil {
		return nil, err
	}
	clAdj, err := adjacency(cl, n)
	if err != nil {
		return nil, err
	}
	m := &model{
		x: x, n: n, dim: dim, k: cfg.K, w: w,
		learnMetric: cfg.LearnMetric,
		ml:          ml,
		cl:          cl,
		mlAdj:       mlAdj,
		clAdj:       clAdj,
		ranges:      dataRanges(x),
		logDets:     make([]float64, cfg.K),
		diameters:   make([]float64, cfg.K),
		cost:        make([]float64, cfg.K),
	}
	m.centers = m.initCenters(r)
	m.metrics = make([][]float64, cfg.K)
	for c := range m.metrics {
		m.metrics[c] = ones(dim)
	}
	m.metricTerms()
	m.labels = make([]int, n)
	for i := range m.labels {
		m.labels[i] = -1
	}

	iters := 0
	for ; iters < maxIter; iters++ {
		changed := m.assign(r)
		m.updateCenters(r)
		if m.learnMetric {
			m.updateMetrics()
			m.metricTerms()
		}
		if !changed && iters > 0 {
			break
		}
	}
	return &Result{
		Labels:    m.labels,
		Centers:   m.centers,
		Metrics:   m.metrics,
		Objective: m.objective(),
		Iters:     iters,
	}, nil
}

type model struct {
	x           [][]float64
	n, dim, k   int
	w           float64
	learnMetric bool
	ml, cl      []constraints.Pair
	mlAdj       [][]int
	clAdj       [][]int
	ranges      []float64 // per-dimension data range, for the CL penalty diameter
	centers     [][]float64
	metrics     [][]float64
	// logDets and diameters hold log det A_c and D²_{A_c} for every
	// cluster. Both depend on the metric alone, so metricTerms refreshes
	// them whenever the metrics change, not once per (point, cluster).
	logDets   []float64
	diameters []float64
	labels    []int
	cost      []float64 // E-step scratch: one object's cost in every cluster
}

// adjacency lists each object's constraint partners, in pair order. It
// rejects a pair naming an object outside [0, n).
func adjacency(pairs []constraints.Pair, n int) ([][]int, error) {
	adj := make([][]int, n)
	for _, p := range pairs {
		if p.A < 0 || p.B >= n {
			return nil, fmt.Errorf("mpckmeans: constraint (%d,%d) names an object outside [0, %d)", p.A, p.B, n)
		}
		adj[p.A] = append(adj[p.A], p.B)
		adj[p.B] = append(adj[p.B], p.A)
	}
	return adj, nil
}

func dataRanges(x [][]float64) []float64 {
	dim := len(x[0])
	lo := linalg.Clone(x[0])
	hi := linalg.Clone(x[0])
	for _, p := range x {
		for j, v := range p {
			if v < lo[j] {
				lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
	}
	rg := make([]float64, dim)
	for j := range rg {
		rg[j] = hi[j] - lo[j]
	}
	return rg
}

func ones(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

// neighborhoods returns the must-link connected components of the
// constrained objects, ordered by smallest member, members ascending.
// Objects with only cannot-links are singletons; unconstrained objects
// belong to none.
func (m *model) neighborhoods() [][]int {
	seen := make([]bool, m.n)
	var comps [][]int
	var stack []int
	for i := range m.n {
		if seen[i] || len(m.mlAdj[i])+len(m.clAdj[i]) == 0 {
			continue
		}
		// Objects below i are all placed, so i is its component's
		// smallest member.
		seen[i] = true
		comp := []int{i}
		stack = append(stack[:0], i)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, j := range m.mlAdj[v] {
				if !seen[j] {
					seen[j] = true
					comp = append(comp, j)
					stack = append(stack, j)
				}
			}
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

// initCenters seeds the clusters from must-link neighborhoods (transitive
// closure components), the initialization of Bilenko et al. §3.4.
func (m *model) initCenters(r *rand.Rand) [][]float64 {
	comps := m.neighborhoods()
	// Neighborhoods: ML components with >= 1 member; singleton CL-only
	// objects still hint at cluster representatives.
	type hood struct {
		centroid []float64
		size     int
	}
	hoods := make([]hood, 0, len(comps))
	for _, members := range comps {
		hoods = append(hoods, hood{centroid: linalg.MeanInto(nil, m.x, members), size: len(members)})
	}
	sort.SliceStable(hoods, func(i, j int) bool { return hoods[i].size > hoods[j].size })

	centers := make([][]float64, 0, m.k)
	if len(hoods) >= m.k {
		// Weighted farthest-first over neighborhood centroids: start from
		// the largest, greedily add the centroid maximizing (size-weighted)
		// distance to the chosen set.
		chosen := []int{0}
		used := make([]bool, len(hoods))
		used[0] = true
		for len(chosen) < m.k {
			best, bestScore := -1, -1.0
			for h := range hoods {
				if used[h] {
					continue
				}
				minD := math.Inf(1)
				for _, c := range chosen {
					if d := linalg.SqDist(hoods[h].centroid, hoods[c].centroid); d < minD {
						minD = d
					}
				}
				score := minD * float64(hoods[h].size)
				if score > bestScore {
					best, bestScore = h, score
				}
			}
			chosen = append(chosen, best)
			used[best] = true
		}
		for _, h := range chosen {
			centers = append(centers, linalg.Clone(hoods[h].centroid))
		}
		return centers
	}
	for _, h := range hoods {
		centers = append(centers, linalg.Clone(h.centroid))
	}
	// Top up with k-means++ seeding against the existing centers.
	d2 := make([]float64, m.n)
	for i := range d2 {
		d2[i] = math.Inf(1)
		for _, c := range centers {
			if d := linalg.SqDist(m.x[i], c); d < d2[i] {
				d2[i] = d
			}
		}
		if len(centers) == 0 {
			d2[i] = 1
		}
	}
	for len(centers) < m.k {
		var total float64
		for _, d := range d2 {
			total += d
		}
		var next int
		if total <= 0 || math.IsInf(total, 1) {
			next = r.Intn(m.n)
		} else {
			target := r.Float64() * total
			cum := 0.0
			next = m.n - 1
			for i, d := range d2 {
				cum += d
				if cum >= target {
					next = i
					break
				}
			}
		}
		c := linalg.Clone(m.x[next])
		centers = append(centers, c)
		for i := range d2 {
			if d := linalg.SqDist(m.x[i], c); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centers
}

// pointCosts fills m.cost[c] with the E-step cost of putting object i into
// cluster c, for every c, given the current (partial) assignment of the
// other objects. Each cluster's cost sums the centre term, then the
// must-link terms in mlAdj[i] order, then the cannot-link terms in
// clAdj[i] order; a neighbour's distance under its own cluster's metric is
// computed once, not once per cluster.
func (m *model) pointCosts(i int) {
	xi := m.x[i]
	for c := range m.cost {
		m.cost[c] = linalg.WeightedSqDist(xi, m.centers[c], m.metrics[c]) - m.logDets[c]
	}
	for _, j := range m.mlAdj[i] {
		lj := m.labels[j]
		if lj < 0 {
			continue
		}
		own := linalg.WeightedSqDist(xi, m.x[j], m.metrics[lj])
		for c := range m.cost {
			if c != lj {
				m.cost[c] += m.w * 0.5 * (linalg.WeightedSqDist(xi, m.x[j], m.metrics[c]) + own)
			}
		}
	}
	for _, j := range m.clAdj[i] {
		c := m.labels[j]
		if c < 0 {
			continue
		}
		pen := m.diameters[c] - linalg.WeightedSqDist(xi, m.x[j], m.metrics[c])
		if pen < 0 {
			pen = 0
		}
		m.cost[c] += m.w * pen
	}
}

// metricTerms refreshes every cluster's log-determinant and cannot-link
// diameter from its metric.
func (m *model) metricTerms() {
	for c, a := range m.metrics {
		var ld float64
		for _, v := range a {
			ld += math.Log(v)
		}
		m.logDets[c] = ld
		// The squared metric-scaled data diameter: the maximal separation
		// term of the cannot-link penalty.
		var d float64
		for j, rg := range m.ranges {
			d += a[j] * rg * rg
		}
		m.diameters[c] = d
	}
}

// assign performs the greedy sequential E-step in random order and reports
// whether any label changed.
func (m *model) assign(r *rand.Rand) bool {
	changed := false
	for _, i := range r.Perm(m.n) {
		m.pointCosts(i)
		best, bestCost := 0, math.Inf(1)
		for c, cost := range m.cost {
			if cost < bestCost {
				best, bestCost = c, cost
			}
		}
		if m.labels[i] != best {
			m.labels[i] = best
			changed = true
		}
	}
	return changed
}

func (m *model) updateCenters(r *rand.Rand) {
	counts := make([]int, m.k)
	for c := range m.centers {
		for j := range m.centers[c] {
			m.centers[c][j] = 0
		}
	}
	for i, p := range m.x {
		counts[m.labels[i]]++
		linalg.AXPY(m.centers[m.labels[i]], 1, p)
	}
	for c := range m.centers {
		if counts[c] == 0 {
			// Re-seed an empty cluster with a random point; rare but
			// possible under heavy cannot-link pressure.
			m.centers[c] = linalg.Clone(m.x[r.Intn(m.n)])
			continue
		}
		linalg.Scale(m.centers[c], 1/float64(counts[c]), m.centers[c])
	}
}

// updateMetrics recomputes the per-cluster diagonal metrics in closed form
// (Bilenko et al. eq. 7, diagonal case), including the constraint-violation
// terms, clamped to keep the metric positive definite.
//
// Each (cluster, dimension) denominator adds its points in index order,
// then its violated must-links in pair order, then its violated
// cannot-links in pair order. A cluster with a violated constraint holds
// that constraint's object, so clusters without points get no terms and
// keep their metric.
func (m *model) updateMetrics() {
	const (
		minWeight = 1e-6
		maxWeight = 1e6
	)
	nC := make([]int, m.k)
	denoms := make([][]float64, m.k)
	for c := range denoms {
		denoms[c] = make([]float64, m.dim)
	}
	for i, p := range m.x {
		c := m.labels[i]
		nC[c]++
		denom, mu := denoms[c], m.centers[c]
		for j := range denom {
			d := p[j] - mu[j]
			denom[j] += d * d
		}
	}
	for _, pr := range m.ml {
		li, lj := m.labels[pr.A], m.labels[pr.B]
		if li == lj {
			continue
		}
		a, b := m.x[pr.A], m.x[pr.B]
		di, dj := denoms[li], denoms[lj]
		for j := range di {
			d := a[j] - b[j]
			t := m.w * 0.5 * d * d
			di[j] += t
			dj[j] += t
		}
	}
	for _, pr := range m.cl {
		c := m.labels[pr.A]
		if m.labels[pr.B] != c {
			continue
		}
		a, b, denom := m.x[pr.A], m.x[pr.B], denoms[c]
		for j := range denom {
			d := a[j] - b[j]
			contrib := m.ranges[j]*m.ranges[j] - d*d
			if contrib > 0 {
				denom[j] += m.w * contrib
			}
		}
	}
	for c, denom := range denoms {
		if nC[c] == 0 {
			continue
		}
		for j := range denom {
			var a float64
			if denom[j] <= 0 {
				a = maxWeight
			} else {
				a = float64(nC[c]) / denom[j]
			}
			if a < minWeight {
				a = minWeight
			}
			if a > maxWeight {
				a = maxWeight
			}
			m.metrics[c][j] = a
		}
	}
}

func (m *model) objective() float64 {
	var J float64
	for i, p := range m.x {
		c := m.labels[i]
		J += linalg.WeightedSqDist(p, m.centers[c], m.metrics[c]) - m.logDets[c]
	}
	for _, pr := range m.ml {
		li, lj := m.labels[pr.A], m.labels[pr.B]
		if li != lj {
			J += m.w * 0.5 * (linalg.WeightedSqDist(m.x[pr.A], m.x[pr.B], m.metrics[li]) +
				linalg.WeightedSqDist(m.x[pr.A], m.x[pr.B], m.metrics[lj]))
		}
	}
	for _, pr := range m.cl {
		if c := m.labels[pr.A]; c == m.labels[pr.B] {
			pen := m.diameters[c] - linalg.WeightedSqDist(m.x[pr.A], m.x[pr.B], m.metrics[c])
			if pen > 0 {
				J += m.w * pen
			}
		}
	}
	return J
}
