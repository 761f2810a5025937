package cvcp

import (
	"cvcp/internal/cluster/optics"
	"cvcp/internal/dataset"
	"cvcp/internal/linalg"
	"cvcp/internal/runner"
)

// The selection engine's grid tasks share expensive intermediates that
// depend only on the dataset (and possibly one parameter), never on the
// fold's constraints:
//
//   - the pairwise-distance matrix, reused by every OPTICS run over the
//     dataset regardless of MinPts;
//   - the OPTICS ordering per (dataset, MinPts), reused by every fold of
//     that parameter and by the final clustering.
//
// runner.Cache provides the sharing. Cells are claimed fold-major (see
// cellTasks), so concurrent workers usually build different MinPts
// orderings; single flight still makes any task that needs an ordering
// already in progress — an overlapping claim, the final refit — block on
// it instead of duplicating the O(n²) work. The cache is process-wide and
// keyed by dataset identity (pointer), retaining only a few recent
// datasets: experiment trials create datasets in sequence and never
// revisit old ones.
const cacheDatasets = 8

var runCache = runner.NewCache(cacheDatasets)

type distMatrixKey struct{ f32 bool }

type opticsKey struct {
	minPts int
	f32    bool
	eps    float64 // 0 = dense ε=∞ path; > 0 (incl. +Inf) = VP-tree ε-range driver
}

// The matrix builders are package variables so the equivalence tests can
// swap in linalg.NewDistMatrixNaive (the scalar reference builder) and
// prove that whole selections — not just matrix entries — are bit-identical
// between the blocked quad-kernel path and the pre-optimization naive path.
var (
	buildDistMatrix   = linalg.NewDistMatrixCondensed
	buildDistMatrix32 = linalg.NewDistMatrixCondensed32
)

// distMatrix returns the dataset's pairwise-distance matrix, computing it
// at most once per cached (dataset, precision). The condensed (triangular)
// layout halves the resident memory per cached dataset; its entries are
// bit-identical to the square layout's, so OPTICS runs are unaffected.
// With f32 the condensed entries are additionally rounded to float32 —
// half the memory again, at a documented 2⁻²⁴ relative error per entry
// (see docs/performance.md) — and cached separately from the float64
// matrix so mixed-precision grids never cross-contaminate.
func distMatrix(ds *dataset.Dataset, f32 bool) *linalg.DistMatrix {
	v, _ := runCache.Do(ds, distMatrixKey{f32}, func() (any, error) {
		if f32 {
			return buildDistMatrix32(ds.X), nil
		}
		return buildDistMatrix(ds.X), nil
	})
	return v.(*linalg.DistMatrix)
}

// opticsRun returns the dataset's OPTICS ordering for (minPts, precision,
// eps), computing it at most once per cached dataset. eps = 0 runs the
// dense path on the shared distance matrix of the requested precision;
// a positive eps routes through the VP-tree ε-range driver, which
// computes distances on demand and never touches (or populates) the
// cached matrix — a finite-ε grid column costs no O(n²) memory.
func opticsRun(ds *dataset.Dataset, minPts int, f32 bool, eps float64) (*optics.Result, error) {
	v, err := runCache.Do(ds, opticsKey{minPts, f32, eps}, func() (any, error) {
		if eps > 0 {
			return optics.RunWithEps(ds.X, minPts, eps)
		}
		return optics.RunWithMatrix(distMatrix(ds, f32), minPts)
	})
	if err != nil {
		return nil, err
	}
	return v.(*optics.Result), nil
}
