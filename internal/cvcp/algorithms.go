package cvcp

import (
	"cvcp/internal/cluster/fosc"
	"cvcp/internal/cluster/hierarchy"
	"cvcp/internal/cluster/mpckmeans"
	"cvcp/internal/constraints"
	"cvcp/internal/dataset"
)

// DefaultMinPtsRange is the MinPts candidate range the paper uses for
// FOSC-OPTICSDend: {3, 6, 9, 12, 15, 18, 21, 24}. It is the single source
// of truth for every surface (root package, CLIs, the selection server), so
// they cannot drift apart. Its largest value is linalg.NearestWidth, the
// width of the nearest-distance table a cached matrix keeps for the sweep.
var DefaultMinPtsRange = []int{3, 6, 9, 12, 15, 18, 21, 24}

// KRange returns the candidate range {lo, ..., hi} for the number of
// clusters. The paper uses 2..M with M a reasonable upper bound.
func KRange(lo, hi int) []int {
	if hi < lo {
		return nil
	}
	out := make([]int, 0, hi-lo+1)
	for k := lo; k <= hi; k++ {
		out = append(out, k)
	}
	return out
}

// FOSCOpticsDend is the density-based semi-supervised clustering method of
// the paper's evaluation: an OPTICS reachability dendrogram from which FOSC
// extracts the constraint-optimal flat clustering. The parameter under
// selection is OPTICS's MinPts; it is also used as FOSC's minimum cluster
// size, the convention of the original FOSC-OPTICSDend experiments.
type FOSCOpticsDend struct {
	// MinClusterSize overrides the minimum selectable cluster size; 0 means
	// "use the MinPts parameter".
	MinClusterSize int
	// Matrix32 stores the shared pairwise-distance matrix as float32,
	// halving its resident memory. Distances are computed in float64 and
	// rounded once, so each entry carries at most 2⁻²⁴ relative error;
	// selections on well-separated data are unaffected, but reachability
	// ties can legitimately resolve differently when distances differ by
	// less than one float32 ULP (see docs/performance.md).
	Matrix32 bool
	// Eps, when positive, caps OPTICS's neighborhood radius: the ordering
	// is computed by the VP-tree ε-range driver (optics.RunWithEps),
	// which never materializes the pairwise-distance matrix — range
	// queries compute distances on demand. 0 means the dense ε=∞ path
	// over the shared matrix. Eps = +Inf is accepted and bit-identical
	// to the dense path (the driver's documented guarantee); combining a
	// positive Eps with Matrix32 is rejected by the callers that
	// validate specs (the driver has no float32-matrix mode) and here
	// Eps simply wins.
	Eps float64
}

// Name implements Algorithm.
func (FOSCOpticsDend) Name() string { return "FOSC-OPTICSDend" }

// Cluster implements Algorithm. The OPTICS ordering depends only on the
// data and MinPts — not on the constraints — so it is obtained through the
// shared run cache (runcache.go): all folds of one MinPts and the final
// clustering share a single ordering computed on the dataset's shared
// pairwise-distance matrix, even when the engine schedules them
// concurrently.
func (f FOSCOpticsDend) Cluster(ds *dataset.Dataset, train *constraints.Set, minPts int, seed int64) ([]int, error) {
	res, err := opticsDendrogram(ds, minPts, f.Matrix32, f.Eps)
	if err != nil {
		return nil, err
	}
	mcs := f.MinClusterSize
	if mcs == 0 {
		mcs = minPts
	}
	ext, err := fosc.Extract(res, train, fosc.Config{MinClusterSize: mcs})
	if err != nil {
		return nil, err
	}
	return ext.Labels, nil
}

func opticsDendrogram(ds *dataset.Dataset, minPts int, f32 bool, eps float64) (*hierarchy.Dendrogram, error) {
	ord, err := opticsRun(ds, minPts, f32, eps)
	if err != nil {
		return nil, err
	}
	return hierarchy.FromReachability(ord)
}

// MPCKMeans adapts the MPCK-Means implementation to the Algorithm
// interface. The parameter under selection is the number of clusters k.
type MPCKMeans struct {
	// Weight is the constraint-violation weight w; 0 means 1.
	Weight float64
	// DisableMetric turns off metric learning (plain PCK-Means), an
	// ablation; the default (false) is full MPCK-Means.
	DisableMetric bool
	// MaxIter bounds the EM iterations; 0 means the package default.
	MaxIter int
}

// Name implements Algorithm.
func (m MPCKMeans) Name() string { return "MPCKmeans" }

// Cluster implements Algorithm.
func (m MPCKMeans) Cluster(ds *dataset.Dataset, train *constraints.Set, k int, seed int64) ([]int, error) {
	res, err := mpckmeans.Run(ds.X, train, mpckmeans.Config{
		K:           k,
		Seed:        seed,
		Weight:      m.Weight,
		LearnMetric: !m.DisableMetric,
		MaxIter:     m.MaxIter,
	})
	if err != nil {
		return nil, err
	}
	return res.Labels, nil
}
