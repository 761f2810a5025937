// Package cvcp is a from-scratch Go implementation of CVCP —
// "Cross-Validation for finding Clustering Parameters" — the model-selection
// framework for semi-supervised clustering of Pourrajabi, Moulavi, Campello,
// Zimek, Sander and Goebel (EDBT 2014), together with every component the
// paper's evaluation depends on: the FOSC-OPTICSDend density-based
// semi-supervised clustering method, MPCK-Means, constraint machinery with
// transitive closure, leakage-free cross-validation fold construction, and
// the internal/external evaluation measures.
//
// # Quick start
//
// Model selection is one call, Select(ctx, Spec): a Spec names the dataset,
// a Grid of candidate (algorithm, parameter-range) pairs, the Supervision
// (Scenario I labels or Scenario II constraints) and a Scorer strategy.
//
// Scenario I — the user can label a few objects:
//
//	ds, _ := cvcp.LoadCSV("mydata", "mydata.csv", true)
//	labeled := ds.SampleLabels(rng, 0.10) // or indices the user labeled
//	res, _ := cvcp.Select(ctx, cvcp.Spec{
//		Dataset:     ds,
//		Grid:        cvcp.Grid{{Algorithm: cvcp.FOSCOpticsDend{}, Params: cvcp.DefaultMinPtsRange}},
//		Supervision: cvcp.Labels(labeled),
//		Options:     cvcp.Options{Seed: 1},
//	})
//	fmt.Println("best MinPts:", res.Winner.Best.Param)
//	use(res.Winner.FinalLabels)
//
// Scenario II — the user has must-link / cannot-link constraints:
//
//	cons := cvcp.NewConstraints()
//	cons.Add(3, 17, true)  // must-link
//	cons.Add(3, 42, false) // cannot-link
//	res, _ := cvcp.Select(ctx, cvcp.Spec{
//		Dataset:     ds,
//		Grid:        cvcp.Grid{{Algorithm: cvcp.MPCKMeans{}, Params: cvcp.KRange(2, 10)}},
//		Supervision: cvcp.ConstraintSet(cons),
//		Options:     cvcp.Options{Seed: 1},
//	})
//
// Everything composes along three orthogonal axes:
//
//   - Grid — one candidate is parameter selection; several candidates are
//     cross-method selection (the whole grid runs as one engine dispatch,
//     sharing one worker pool, one Limiter and one run cache);
//   - Supervision — Labels(idx) or ConstraintSet(cons);
//   - Scorer — nil/CrossValidation{} (the paper's CVCP criterion),
//     Bootstrap{Rounds: n} (resampling), or Validity{Index: vi} (the
//     classical unsupervised baselines).
//
// The examples/ directory contains complete runnable programs, and
// cmd/experiments regenerates every table and figure of the paper.
//
// # Concurrency
//
// The scoring grid — every (candidate, parameter, fold) cell — is
// scheduled onto a bounded worker pool, controlled by three Options fields
// and the ctx argument of Select, which cancels a selection mid-grid:
//
//   - Workers bounds this selection's concurrency (0 = serial, -1 = one
//     worker per CPU, any positive value an explicit bound);
//   - Progress observes completion: it is called after every finished
//     grid task with (done, total), serialized and monotone;
//   - Limiter, when non-nil, draws every task's execution slot from a
//     budget shared with other selections — multi-tenant callers (e.g.
//     the cvcpd server) bound machine-wide load with one Limiter while
//     Workers still bounds each selection.
//
// # Determinism
//
// Selections are bit-identical for every Workers value and Limiter
// budget: per-task seeds derive from grid position, never from scheduling
// order, every task writes only its own result slot, and error reporting
// picks the lowest-indexed failure. A multi-candidate Select is
// bit-identical to selecting each candidate alone. Expensive intermediates
// that depend only on the dataset (pairwise distances, OPTICS orderings per
// MinPts) are shared across folds, parameters, candidates and the final
// clustering through a single-flight cache, which changes cost, never
// results.
package cvcp

import (
	"context"
	"io"
	"math/rand"

	"cvcp/internal/constraints"
	corecvcp "cvcp/internal/cvcp"
	"cvcp/internal/dataset"
	"cvcp/internal/eval"
	"cvcp/internal/runner"
	"cvcp/internal/stats"
)

// Dataset is a numeric dataset with optional ground-truth class labels.
type Dataset = dataset.Dataset

// Constraints is a deduplicated set of pairwise must-link / cannot-link
// constraints.
type Constraints = constraints.Set

// Constraint is a single pairwise constraint.
type Constraint = constraints.Constraint

// Algorithm is a semi-supervised clustering algorithm with one integer
// parameter under selection.
type Algorithm = corecvcp.Algorithm

// Options configures a model-selection run.
type Options = corecvcp.Options

// Spec is the declarative description of one model selection: dataset,
// candidate Grid, Supervision and Scorer. See Select.
type Spec = corecvcp.Spec

// Grid is the candidate set of one selection; each entry pairs an algorithm
// with its parameter range.
type Grid = corecvcp.Grid

// Result is the outcome of a unified selection: every candidate's Selection
// plus the overall winner.
type Result = corecvcp.Result

// Supervision is the partial ground truth driving a selection; Labels and
// ConstraintSet are the two scenarios.
type Supervision = corecvcp.Supervision

// Fold is one train/test split of supervision in constraint form, as
// produced by a Supervision for the partition-based scorers.
type Fold = corecvcp.Fold

// Scorer is the pluggable scoring strategy of a selection; CrossValidation,
// Bootstrap and Validity are the built-in implementations.
type Scorer = corecvcp.Scorer

// CrossValidation scores candidates by n-fold cross-validation — the
// paper's CVCP criterion and the default Scorer.
type CrossValidation = corecvcp.CrossValidation

// Bootstrap scores candidates by bootstrap resampling (out-of-bag testing)
// instead of cross-validation.
type Bootstrap = corecvcp.Bootstrap

// Validity scores candidates by a relative clustering validity index — the
// classical unsupervised model-selection baseline.
type Validity = corecvcp.Validity

// ScorerByName maps a scoring-strategy name ("cv", "bootstrap", or a
// validity index name) onto its Scorer implementation; every name-based
// surface (cmd/cvcp -scorer, the cvcpd job spec) shares this mapping.
func ScorerByName(name string, rounds int) (Scorer, error) {
	return corecvcp.ScorerByName(name, rounds)
}

// ScorerNames returns every name ScorerByName accepts.
func ScorerNames() []string { return corecvcp.ScorerNames() }

// Select is the single entry point of the framework: it scores every
// candidate of spec.Grid against spec.Supervision with spec.Scorer (nil
// means CrossValidation{}) and returns the per-candidate selections plus
// the overall winner. The whole workload dispatches through the execution
// engine as one run; ctx cancels it mid-grid.
func Select(ctx context.Context, spec Spec) (*Result, error) {
	return corecvcp.Select(ctx, spec)
}

// Labels is Scenario I supervision: the objects at the given indices are
// labeled (labels are read from the dataset's Y column).
func Labels(idx []int) Supervision { return corecvcp.Labels(idx) }

// ConstraintSet is Scenario II supervision: a set of pairwise must-link /
// cannot-link constraints.
func ConstraintSet(cons *Constraints) Supervision { return corecvcp.ConstraintSet(cons) }

// Limiter is a global execution budget shared by several selections: when
// set on Options.Limiter, the total number of grid tasks running across all
// selections holding the same Limiter never exceeds its capacity.
// cmd/cvcpd uses one Limiter as its server-wide worker budget.
type Limiter = runner.Limiter

// NewLimiter returns a Limiter with n execution slots (minimum 1).
func NewLimiter(n int) *Limiter { return runner.NewLimiter(n) }

// Selection is the outcome of scoring one grid candidate.
type Selection = corecvcp.Selection

// ParamScore is the cross-validated quality of one candidate parameter.
type ParamScore = corecvcp.ParamScore

// FOSCOpticsDend is the density-based semi-supervised clustering method
// (parameter: MinPts).
type FOSCOpticsDend = corecvcp.FOSCOpticsDend

// MPCKMeans is metric pairwise constrained k-means (parameter: k).
type MPCKMeans = corecvcp.MPCKMeans

// COPKMeans is hard-constrained k-means (Wagstaff et al. 2001; parameter:
// k) — the additional method the paper's future work calls for.
type COPKMeans = corecvcp.COPKMeans

// Candidate pairs an algorithm with its parameter range — one entry of a
// Grid.
type Candidate = corecvcp.Candidate

// DefaultMinPtsRange is the MinPts candidate range the paper uses for
// FOSC-OPTICSDend: {3, 6, 9, 12, 15, 18, 21, 24}.
var DefaultMinPtsRange = corecvcp.DefaultMinPtsRange

// KRange returns the candidate range {lo, ..., hi} for the number of
// clusters. The paper uses 2..M with M a reasonable upper bound.
func KRange(lo, hi int) []int { return corecvcp.KRange(lo, hi) }

// NewDataset validates x (and y, if non-nil) and wraps them in a Dataset.
func NewDataset(name string, x [][]float64, y []int) (*Dataset, error) {
	return dataset.New(name, x, y)
}

// LoadCSV reads a dataset from a CSV file; when hasLabel is true the last
// column is the integer class label.
func LoadCSV(name, path string, hasLabel bool) (*Dataset, error) {
	return dataset.LoadCSV(name, path, hasLabel)
}

// ReadCSV parses a dataset from CSV.
func ReadCSV(name string, r io.Reader, hasLabel bool) (*Dataset, error) {
	return dataset.ReadCSV(name, r, hasLabel)
}

// NewConstraints returns an empty constraint set.
func NewConstraints() *Constraints { return constraints.NewSet() }

// ConstraintsFromLabels derives all pairwise constraints among the given
// labeled objects: must-link for same-label pairs, cannot-link otherwise.
func ConstraintsFromLabels(indices []int, y []int) *Constraints {
	return constraints.FromLabels(indices, y)
}

// TransitiveClosure extends a constraint set to its transitive closure,
// reporting an error for inconsistent inputs.
func TransitiveClosure(s *Constraints) (*Constraints, error) {
	return constraints.Closure(s)
}

// ValidityIndex is a relative clustering validity criterion usable as an
// unsupervised model-selection baseline.
type ValidityIndex = corecvcp.ValidityIndex

// ValidityIndices returns Silhouette, Davies–Bouldin, Calinski–Harabasz and
// Dunn — the classical criteria from the comparative study the paper cites.
func ValidityIndices() []ValidityIndex { return corecvcp.ValidityIndices() }

// ConstraintF scores a labeling as a classifier over the given constraints —
// the paper's internal quality measure (average per-class F-measure).
func ConstraintF(labels []int, cons *Constraints) float64 {
	return eval.ConstraintF(labels, cons)
}

// OverallF computes the Overall F-Measure between a labeling and the ground
// truth over the evaluation objects (all objects when evalIdx is nil).
func OverallF(labels, truth []int, evalIdx []int) float64 {
	return eval.OverallF(labels, truth, evalIdx)
}

// Silhouette computes the mean Silhouette coefficient of a labeling.
func Silhouette(x [][]float64, labels []int) float64 {
	return eval.Silhouette(x, labels)
}

// NewRand returns a deterministic random source for use with the sampling
// helpers on Dataset.
func NewRand(seed int64) *rand.Rand { return stats.NewRand(seed) }

// ConstraintPool builds the paper's candidate constraint pool: objFrac of
// the objects of each class, all pairwise constraints among them.
func ConstraintPool(r *rand.Rand, y []int, objFrac float64) *Constraints {
	return constraints.Pool(r, y, objFrac)
}

// SampleConstraints draws a uniform subset containing frac of the
// constraints in s.
func SampleConstraints(r *rand.Rand, s *Constraints, frac float64) *Constraints {
	return constraints.Sample(r, s, frac)
}
