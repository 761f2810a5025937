// Package cvcp implements the paper's contribution: CVCP ("Cross-Validation
// for finding Clustering Parameters"), a model-selection framework for
// semi-supervised clustering (Section 3 of the paper).
//
// The framework is one composable pipeline behind a single entry point,
// Select(ctx, Spec): a Spec names the dataset, a Grid of (algorithm,
// parameter-range) candidates, a Supervision (labeled objects — Scenario I —
// or pairwise constraints — Scenario II) and a Scorer strategy
// (cross-validation — the paper's CVCP criterion —, bootstrap resampling,
// or a relative validity index). A partition scorer's selection is a
// CellPlan: every (candidate, parameter, fold) cell is scored through the
// execution engine as one run, each candidate's best parameter is refit
// with all supervision, and the overall winner is the cross-candidate best.
package cvcp

import (
	"context"
	"runtime"
	"sort"

	"cvcp/internal/constraints"
	"cvcp/internal/dataset"
	"cvcp/internal/runner"
)

// Algorithm is a semi-supervised clustering algorithm with a single integer
// parameter under selection (the number of clusters k for partitional
// methods, MinPts for density-based methods).
//
// Cluster must cluster the whole dataset using only the supervision in
// train, and return one cluster label per object; label -1 marks noise.
// Implementations must be deterministic given (ds, train, param, seed).
type Algorithm interface {
	Name() string
	Cluster(ds *dataset.Dataset, train *constraints.Set, param int, seed int64) ([]int, error)
}

// Options configures a selection run.
type Options struct {
	// NFolds is the number of cross-validation folds. 0 means 10 (the
	// paper's typical n). When the supervision involves too few objects to
	// give every fold at least two, the fold count is automatically lowered
	// (never below 2).
	NFolds int
	// Seed drives fold construction and the per-cell algorithm seeds.
	Seed int64
	// Workers bounds how many grid tasks the selection engine runs
	// concurrently. 0 means serial; negative means one worker per CPU.
	// Every task's seed derives from its grid position, so the result is
	// bit-identical for every worker count.
	Workers int
	// Progress, when non-nil, observes grid completion: it is called after
	// each finished grid task with (done, total). Calls are serialized.
	Progress func(done, total int)
	// Limiter, when non-nil, draws every grid task's execution slot from a
	// budget shared with other selections: the total number of tasks
	// executing across all selections holding the same Limiter never
	// exceeds its capacity. Multi-tenant callers (e.g. a selection server)
	// use this to bound machine load globally instead of per selection.
	Limiter *runner.Limiter
	// CellCache, when non-nil, memoizes partition-scorer cell scores
	// across runs through the content-addressed cell cache. Only cells of
	// folds carrying a CacheKey (stable supervisions such as StableLabels)
	// participate. Like Workers and Limiter this is machine-local
	// configuration: a cached score is bit-identical to the computation
	// it replaced, so the cache never affects results; Result.Cells
	// reports how many cells it served.
	CellCache *runner.ScoreCache
}

func (o Options) nFolds() int {
	if o.NFolds <= 0 {
		return 10
	}
	return o.NFolds
}

// workers resolves the Options to an effective worker count.
func (o Options) workers() int {
	switch {
	case o.Workers > 0:
		return o.Workers
	case o.Workers < 0:
		return runtime.GOMAXPROCS(0)
	default:
		return 1
	}
}

// engineOptions builds the runner configuration of a selection's grid
// run under ctx.
func (o Options) engineOptions(ctx context.Context) runner.Options {
	return runner.Options{Workers: o.workers(), Context: ctx, OnProgress: o.Progress, Limiter: o.Limiter}
}

// ParamScore is the cross-validated quality of one candidate parameter.
type ParamScore struct {
	Param      int
	Score      float64   // mean of FoldScores — the paper's CVCP criterion
	FoldScores []float64 // average constraint F-measure per test fold
}

// Selection is the outcome of scoring one grid candidate.
type Selection struct {
	Algorithm string
	Best      ParamScore
	// Scores holds every candidate parameter's result, in the order the
	// parameters were given.
	Scores []ParamScore
	// FinalLabels is the clustering of the full dataset with the selected
	// parameter using all available supervision (step 4 of the framework).
	FinalLabels []int
}

// ScoreCurve returns the candidates' mean scores in candidate order —
// the "CVCP internal classification scores" curve of Figures 5–8.
func (s *Selection) ScoreCurve() []float64 {
	out := make([]float64, len(s.Scores))
	for i, ps := range s.Scores {
		out[i] = ps.Score
	}
	return out
}

// SortScores returns a copy of scores ordered by decreasing Score (ties by
// increasing parameter), useful for reporting.
func SortScores(scores []ParamScore) []ParamScore {
	out := append([]ParamScore(nil), scores...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Param < out[j].Param
	})
	return out
}
