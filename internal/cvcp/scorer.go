package cvcp

import (
	"context"
	"fmt"
	"strings"

	"cvcp/internal/constraints"
	"cvcp/internal/dataset"
	"cvcp/internal/eval"
	"cvcp/internal/runner"
	"cvcp/internal/stats"
)

// Scorer is the strategy that scores a candidate grid against supervision
// — the axis along which evaluation procedures plug into the framework.
// Three implementations ship: CrossValidation (the paper's CVCP
// criterion), Bootstrap (the resampling alternative §3.1 mentions) and
// Validity (the classical unsupervised baselines of §4.3). The first two
// are PartitionScorers: Select plans their folds' cell grid (PlanCells)
// and scores it through the engine as one run. Validity clusters each
// candidate parameter once with the full supervision and needs no folds.
// Every random seed derives from grid position — never from scheduling
// order — so results are bit-identical for any worker count.
type Scorer interface {
	// Name identifies the strategy in errors and reports.
	Name() string
	// Better reports whether best-score a beats best-score b when
	// comparing candidates (larger-is-better for constraint F-measure,
	// index-specific for validity criteria).
	Better(a, b float64) bool
}

// ScorerByName maps a scoring-strategy name onto its implementation: ""
// or "cv" is CrossValidation, "bootstrap" is Bootstrap with the given
// round count, and any validity index name from ValidityIndices()
// (silhouette, davies-bouldin, calinski-harabasz, dunn) is Validity over
// that index. Every name-based surface (the cvcp CLI's -scorer flag, the
// cvcpd job spec) resolves through this one mapping, so the accepted
// vocabulary cannot drift between surfaces.
func ScorerByName(name string, rounds int) (Scorer, error) {
	switch name {
	case "", "cv":
		return CrossValidation{}, nil
	case "bootstrap":
		return Bootstrap{Rounds: rounds}, nil
	}
	for _, vi := range ValidityIndices() {
		if vi.Name == name {
			return Validity{Index: vi}, nil
		}
	}
	return nil, fmt.Errorf("cvcp: unknown scorer %q (have %s)", name, strings.Join(ScorerNames(), ", "))
}

// ScorerNames returns every name ScorerByName accepts.
func ScorerNames() []string {
	out := []string{"cv", "bootstrap"}
	for _, vi := range ValidityIndices() {
		out = append(out, vi.Name)
	}
	return out
}

// CrossValidation scores candidates by n-fold cross-validation — the
// paper's CVCP criterion: the partition produced from each fold's training
// supervision is treated as a binary classifier over the fold's test
// constraints and scored with the average per-class F-measure. The fold
// count comes from Options.NFolds (0 means 10, adapted downward for small
// supervision).
type CrossValidation struct{}

// Name implements Scorer.
func (CrossValidation) Name() string { return "cross-validation" }

// Better implements Scorer: larger constraint F-measure wins.
func (CrossValidation) Better(a, b float64) bool { return a > b }

// Folds implements PartitionScorer: n-fold splits of the supervision,
// deterministic from (supervision, fold count, seed).
func (CrossValidation) Folds(ds *dataset.Dataset, sup Supervision, opt Options) ([]Fold, *constraints.Set, error) {
	return sup.CVFolds(ds, opt.nFolds(), opt.Seed)
}

// Bootstrap scores candidates by bootstrap resampling instead of
// cross-validation — the alternative partition-based evaluation the paper's
// Section 3.1 mentions. Each round draws supervision objects with
// replacement as the training side; the out-of-bag objects form the test
// side. Only label supervision can be resampled.
type Bootstrap struct {
	// Rounds is the number of bootstrap rounds; 0 means 10.
	Rounds int
}

// Name implements Scorer.
func (Bootstrap) Name() string { return "bootstrap" }

// Better implements Scorer: larger constraint F-measure wins.
func (Bootstrap) Better(a, b float64) bool { return a > b }

func (b Bootstrap) rounds() int {
	if b.Rounds < 1 {
		return 10
	}
	return b.Rounds
}

// Folds implements PartitionScorer: bootstrap resamples of the
// supervision, deterministic from (supervision, round count, seed).
func (b Bootstrap) Folds(ds *dataset.Dataset, sup Supervision, opt Options) ([]Fold, *constraints.Set, error) {
	return sup.BootstrapFolds(ds, b.rounds(), opt.Seed)
}

// Validity scores candidates by a relative clustering validity index — the
// classical unsupervised model-selection baseline (§4.3): every candidate
// parameter clusters the data once with the full supervision and the index
// picks the winner from the resulting partitions. There is no refit: the
// winning sweep partition is the final clustering.
type Validity struct {
	Index ValidityIndex
}

// Name implements Scorer.
func (v Validity) Name() string { return "validity:" + v.Index.Name }

// Better implements Scorer, deferring to the index's own direction.
func (v Validity) Better(a, b float64) bool {
	if v.Index.Better == nil {
		return false
	}
	return v.Index.Better(a, b)
}

// sweep is a Validity selection: Select runs one full-supervision
// parameter sweep per candidate in place of a cell plan.
func (v Validity) sweep(ctx context.Context, spec Spec) (*Result, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	full, err := spec.Supervision.Full(spec.Dataset)
	if err != nil {
		return nil, err
	}
	per, err := validityScore(ctx, spec.Dataset, spec.Grid, full, []ValidityIndex{v.Index}, spec.Options)
	if err != nil {
		return nil, err
	}
	sels := make([]*Selection, len(per))
	for ci := range per {
		sels[ci] = per[ci][0]
	}
	return newResult(sels, v), nil
}

// newScoreGrid allocates the per-candidate score matrix the cell tasks
// write into: scores[ci][pi].FoldScores[fi] is one cell's output slot.
func newScoreGrid(grid Grid, nFolds int) [][]ParamScore {
	scores := make([][]ParamScore, len(grid))
	for ci, cand := range grid {
		scores[ci] = make([]ParamScore, len(cand.Params))
		for pi, p := range cand.Params {
			scores[ci][pi] = ParamScore{Param: p, FoldScores: make([]float64, nFolds)}
		}
	}
	return scores
}

// gridCells returns the number of (candidate, parameter, fold) cells.
func gridCells(grid Grid, nFolds int) int {
	cells := 0
	for _, cand := range grid {
		cells += len(cand.Params) * nFolds
	}
	return cells
}

// cellTasks builds one engine task per (candidate, parameter, fold) cell
// whose index c lies in [lo, hi); the task writes the cell's score to
// out[c-lo]. Cells are indexed in canonical cell order — ci outermost,
// then pi, then fi — the linearization the distributed layer's shard
// ranges index into. Each cell's seed is
// stats.SplitSeed(seed, pi*len(folds)+fi+1), a function of its
// within-candidate position only, so any contiguous subrange computes
// bit-identically to those cells of the full grid.
//
// The tasks come in claim order, which differs from cell order: within a
// candidate, fold-major — fold 0 of every parameter column before fold 1
// of any. Every cell of a FOSC-OPTICSDend column needs the same OPTICS
// ordering, computed once in single flight: claimed column by column, a
// second worker would wait on the first one's ordering, while claimed
// fold-major, concurrent workers build different columns' orderings at
// once. The engine reports the failing task that comes first in claim
// order, so errors stay deterministic.
//
// A fold carrying its own sub-dataset (Fold.Data, stable supervisions) is
// clustered on that sub-dataset; when it also carries a CacheKey and
// opt.CellCache is set, the cell's score goes through the content-addressed
// cell cache — a cache hit returns the identical bits the computation
// would have produced. A cell writes its score to out and whether the
// cache served it to reused, both at the cell's index less lo.
func cellTasks(ds *dataset.Dataset, grid Grid, folds []Fold, opt Options, out []float64, reused []bool, lo, hi int) []runner.Task {
	tasks := make([]runner.Task, 0, hi-lo)
	base := 0 // index of the candidate's first cell
	for ci, cand := range grid {
		for fi := range folds {
			for pi := range cand.Params {
				c := base + pi*len(folds) + fi
				if c < lo || c >= hi {
					continue
				}
				ci, pi, fi := ci, pi, fi
				tasks = append(tasks, func(context.Context) error {
					cand := grid[ci]
					fold := folds[fi]
					cellSeed := stats.SplitSeed(opt.Seed, pi*len(folds)+fi+1)
					data := ds
					if fold.Data != nil {
						data = fold.Data
					}
					compute := func() (float64, error) {
						labels, err := cand.Algorithm.Cluster(data, fold.Train, cand.Params[pi], cellSeed)
						if err != nil {
							return 0, fmt.Errorf("cvcp: %s with parameter %d: %w", cand.Algorithm.Name(), cand.Params[pi], err)
						}
						return eval.ConstraintF(labels, fold.Test), nil
					}
					var (
						score float64
						hit   bool
						err   error
					)
					if opt.CellCache != nil && fold.CacheKey != "" {
						key := cellKey(fold.CacheKey, algoCacheID(cand.Algorithm), cand.Params[pi], cellSeed)
						score, hit, err = opt.CellCache.Do(key, compute)
					} else {
						score, err = compute()
					}
					if err != nil {
						return err
					}
					out[c-lo], reused[c-lo] = score, hit
					return nil
				})
			}
		}
		base += len(cand.Params) * len(folds)
	}
	return tasks
}

// reduceScores folds per-cell scores into per-candidate selections: each
// parameter's score is the mean over folds, and the best parameter is
// the first strictly-greater scan in parameter order — the single-node
// reduction every distributed merge must reproduce exactly.
func reduceScores(grid Grid, scores [][]ParamScore) []*Selection {
	out := make([]*Selection, len(grid))
	for ci, cand := range grid {
		for pi := range scores[ci] {
			scores[ci][pi].Score = stats.Mean(scores[ci][pi].FoldScores)
		}
		best := scores[ci][0]
		for _, ps := range scores[ci][1:] {
			if ps.Score > best.Score {
				best = ps
			}
		}
		out[ci] = &Selection{Algorithm: cand.Algorithm.Name(), Best: best, Scores: scores[ci]}
	}
	return out
}

// refitFinals computes each candidate's final clustering with the full
// supervision. The final clusterings dispatch through the engine too —
// one task per candidate, still under the shared Limiter and ctx — each
// seeded with stats.SplitSeed(opt.Seed, 0), an index no grid cell uses.
// Progress reporting covers the scoring grid only, so the callback never
// sees a second, smaller (done, total) sequence after the grid completed.
func refitFinals(ctx context.Context, ds *dataset.Dataset, grid Grid, full *constraints.Set, opt Options, out []*Selection) error {
	fopt := opt.engineOptions(ctx)
	fopt.OnProgress = nil
	finals := make([]runner.Task, len(grid))
	for ci := range grid {
		ci := ci
		finals[ci] = func(context.Context) error {
			labels, err := grid[ci].Algorithm.Cluster(ds, full, out[ci].Best.Param, stats.SplitSeed(opt.Seed, 0))
			if err != nil {
				return err
			}
			out[ci].FinalLabels = labels
			return nil
		}
	}
	if err := runner.Run(fopt, finals); err != nil {
		if ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("cvcp: final clustering: %w", err)
	}
	return nil
}

// newResult picks the overall winner of a selection: the first candidate
// that no later candidate beats under the scorer's comparison.
func newResult(sels []*Selection, s Scorer) *Result {
	res := &Result{PerCandidate: sels}
	for _, sel := range sels {
		if res.Winner == nil || s.Better(sel.Best.Score, res.Winner.Best.Score) {
			res.Winner = sel
		}
	}
	return res
}

// validityScore runs one full-supervision parameter sweep per candidate —
// all candidates through a single engine run under ctx — and scores the
// shared partitions with every given index. It returns one Selection per
// (candidate, index); the clustering cost is the dominant term, so scoring
// n indices costs the same as scoring one.
func validityScore(ctx context.Context, ds *dataset.Dataset, grid Grid, full *constraints.Set, vis []ValidityIndex, opt Options) ([][]*Selection, error) {
	for _, vi := range vis {
		if vi.Score == nil || vi.Better == nil {
			return nil, fmt.Errorf("cvcp: validity index %q incomplete", vi.Name)
		}
	}
	labelsPer := make([][][]int, len(grid))
	tasks := make([]runner.Task, 0)
	for ci, cand := range grid {
		labelsPer[ci] = make([][]int, len(cand.Params))
		for pi := range cand.Params {
			ci, pi := ci, pi
			tasks = append(tasks, func(context.Context) error {
				cand := grid[ci]
				labels, err := cand.Algorithm.Cluster(ds, full, cand.Params[pi], stats.SplitSeed(opt.Seed, pi+1))
				if err != nil {
					return fmt.Errorf("cvcp: %s with parameter %d: %w", cand.Algorithm.Name(), cand.Params[pi], err)
				}
				labelsPer[ci][pi] = labels
				return nil
			})
		}
	}
	if err := runner.Run(opt.engineOptions(ctx), tasks); err != nil {
		return nil, err
	}
	out := make([][]*Selection, len(grid))
	for ci, cand := range grid {
		out[ci] = make([]*Selection, len(vis))
		for vii, vi := range vis {
			scores := make([]ParamScore, len(cand.Params))
			bi := 0
			for pi, p := range cand.Params {
				scores[pi] = ParamScore{Param: p, Score: vi.Score(ds.X, labelsPer[ci][pi])}
				if pi > 0 && vi.Better(scores[pi].Score, scores[bi].Score) {
					bi = pi
				}
			}
			out[ci][vii] = &Selection{
				Algorithm:   cand.Algorithm.Name() + "+" + vi.Name,
				Best:        scores[bi],
				Scores:      scores,
				FinalLabels: labelsPer[ci][bi],
			}
		}
	}
	return out, nil
}
