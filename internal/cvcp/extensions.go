package cvcp

import (
	"context"
	"errors"
	"fmt"

	"cvcp/internal/cluster/copkmeans"
	"cvcp/internal/constraints"
	"cvcp/internal/dataset"
	"cvcp/internal/eval"
)

// This file implements the extensions the paper's conclusion names as
// future work: another semi-supervised clustering method under CVCP
// (COP-KMeans) and, through multi-candidate Grids under Select, selection
// between clustering methods. It also holds the relative validity indices
// of the Validity scorer and the multi-index sweep of the ablations.

// COPKMeans adapts hard-constrained COP-KMeans (Wagstaff et al., ICML 2001)
// to the Algorithm interface. The parameter under selection is k. Infeasible
// (k, constraints) combinations yield a failed clustering rather than an
// error: every object becomes noise, which scores near zero and steers the
// selection away — mirroring how a practitioner treats a configuration the
// algorithm cannot satisfy.
type COPKMeans struct {
	// MaxIter bounds the Lloyd iterations; 0 means the package default.
	MaxIter int
}

// Name implements Algorithm.
func (COPKMeans) Name() string { return "COP-KMeans" }

// Cluster implements Algorithm.
func (c COPKMeans) Cluster(ds *dataset.Dataset, train *constraints.Set, k int, seed int64) ([]int, error) {
	res, err := copkmeans.Run(ds.X, train, copkmeans.Config{K: k, Seed: seed, MaxIter: c.MaxIter})
	if err != nil {
		if errors.Is(err, copkmeans.ErrInfeasible) {
			labels := make([]int, ds.N())
			for i := range labels {
				labels[i] = -1
			}
			return labels, nil
		}
		return nil, err
	}
	return res.Labels, nil
}

// ValidityIndex is a relative clustering validity criterion used as an
// unsupervised model-selection baseline. Better reports whether larger
// values are better (Calinski–Harabasz, Dunn, Silhouette) or smaller ones
// (Davies–Bouldin).
type ValidityIndex struct {
	Name   string
	Score  func(x [][]float64, labels []int) float64
	Better func(a, b float64) bool
}

func silhouetteIndex() ValidityIndex {
	return ValidityIndex{
		Name:   "silhouette",
		Score:  eval.Silhouette,
		Better: func(a, b float64) bool { return a > b },
	}
}

// ValidityIndices returns the classical criteria from the comparative study
// the paper cites (Vendramin et al. 2010): Silhouette (the paper's own
// baseline), Davies–Bouldin, Calinski–Harabasz and Dunn.
func ValidityIndices() []ValidityIndex {
	return []ValidityIndex{
		silhouetteIndex(),
		{Name: "davies-bouldin", Score: eval.DaviesBouldin, Better: func(a, b float64) bool { return a < b }},
		{Name: "calinski-harabasz", Score: eval.CalinskiHarabasz, Better: func(a, b float64) bool { return a > b }},
		{Name: "dunn", Score: eval.Dunn, Better: func(a, b float64) bool { return a > b }},
	}
}

// SelectByValidityIndices evaluates several relative validity criteria over
// one shared parameter sweep: each candidate parameter clusters the data
// exactly once (the sweep dispatches through the selection engine), and
// every criterion picks its winner from the shared partitions. The
// clustering cost is the dominant term, so comparing n criteria costs the
// same as comparing one. For a single criterion, prefer Select with
// Scorer: Validity{Index: vi}.
func SelectByValidityIndices(alg Algorithm, ds *dataset.Dataset, full *constraints.Set, params []int, vis []ValidityIndex, opt Options) ([]*Selection, error) {
	spec := Spec{
		Dataset:     ds,
		Grid:        Grid{{Algorithm: alg, Params: params}},
		Supervision: ConstraintSet(full),
		Options:     opt,
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if len(vis) == 0 {
		return nil, fmt.Errorf("cvcp: no validity indices")
	}
	sup, err := spec.Supervision.Full(ds)
	if err != nil {
		return nil, err
	}
	per, err := validityScore(context.Background(), ds, spec.Grid, sup, vis, spec.Options)
	if err != nil {
		return nil, err
	}
	return per[0], nil
}
