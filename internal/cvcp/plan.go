package cvcp

import (
	"context"
	"fmt"

	"cvcp/internal/constraints"
	"cvcp/internal/dataset"
	"cvcp/internal/runner"
)

// PartitionScorer is the subset of scorers whose workload is a
// (candidate, parameter, fold) grid of independent cells —
// CrossValidation and Bootstrap. Folds materializes the evaluation
// folds deterministically from (supervision, options), which is what
// makes the grid distributable: every node reconstructs identical folds
// from the spec alone, so a cell computes bit-identically anywhere.
// Validity is not a PartitionScorer (its sweep partitions double as the
// final clusterings, a cross-cell dependency), so validity jobs stay
// single-node.
type PartitionScorer interface {
	Scorer
	Folds(ds *dataset.Dataset, sup Supervision, opt Options) ([]Fold, *constraints.Set, error)
}

// CellPlan is a selection's cell grid, planned but not executed: the
// deterministic folds plus everything needed to compute any contiguous
// cell subrange (ScoreRange) or merge a complete set of cell scores
// into the final Result (Finalize). Cells linearize candidate-major —
// ci outermost, then parameter, then fold — the cell order cellTasks
// indexes by.
//
// Select runs a partition scorer's selection as exactly this plan: all
// cells in one engine run, then Finalize. The contract underpinning
// distributed execution follows: for any partition of [0, NumCells())
// into ranges, computing each range with ScoreRange (on any node, at any
// worker count) and passing the concatenated scores to Finalize yields a
// Result bit-identical to Select on the same Spec.
type CellPlan struct {
	ds     *dataset.Dataset
	grid   Grid
	folds  []Fold
	full   *constraints.Set
	opt    Options
	scorer Scorer
	cells  int
}

// PlanCells validates the spec and materializes its fold plan. It fails
// when the spec's scorer is not partition-based (Validity); callers fall
// back to Select, which sweeps instead.
func PlanCells(spec Spec) (*CellPlan, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	scorer := spec.Scorer
	if scorer == nil {
		scorer = CrossValidation{}
	}
	ps, ok := scorer.(PartitionScorer)
	if !ok {
		return nil, fmt.Errorf("cvcp: scorer %s is not partition-based; its grid cannot be sharded", scorer.Name())
	}
	folds, full, err := ps.Folds(spec.Dataset, spec.Supervision, spec.Options)
	if err != nil {
		return nil, err
	}
	return &CellPlan{
		ds:     spec.Dataset,
		grid:   spec.Grid,
		folds:  folds,
		full:   full,
		opt:    spec.Options,
		scorer: scorer,
		cells:  gridCells(spec.Grid, len(folds)),
	}, nil
}

// NumCells returns the total cell count of the grid.
func (p *CellPlan) NumCells() int { return p.cells }

// NumFolds returns the fold count: the length of each (candidate,
// parameter) column of consecutive cells.
func (p *CellPlan) NumFolds() int { return len(p.folds) }

// ScoreRange computes the cells in [lo, hi) and returns their scores in
// cell order. workers and limiter are the executing node's own
// machine-local budget — they affect scheduling only, never the scores,
// which derive purely from grid position. The range's cells are claimed
// in the same fold-major order as a whole grid's (see cellTasks).
func (p *CellPlan) ScoreRange(ctx context.Context, lo, hi int, workers int, limiter *runner.Limiter) ([]float64, error) {
	scores, _, err := p.ScoreRangeCounted(ctx, lo, hi, workers, limiter)
	return scores, err
}

// CellCounts reports how a scored cell range was obtained: Computed cells
// ran their clustering this call (dirty), Reused cells came out of the
// cell cache. Computed+Reused equals the range size.
type CellCounts struct {
	Computed int `json:"computed"`
	Reused   int `json:"reused"`
}

// ScoreRangeCounted is ScoreRange plus the range's computed/reused cell
// counts — the per-shard accounting distributed workers report back so
// re-selection jobs can assert they scheduled strictly fewer cells.
func (p *CellPlan) ScoreRangeCounted(ctx context.Context, lo, hi int, workers int, limiter *runner.Limiter) ([]float64, CellCounts, error) {
	return p.scoreCells(lo, hi, runner.Options{Workers: workers, Context: ctx, Limiter: limiter})
}

// scoreCells computes the cells in [lo, hi) as one engine run under ropt
// and returns their scores in cell order with the range's counts.
func (p *CellPlan) scoreCells(lo, hi int, ropt runner.Options) ([]float64, CellCounts, error) {
	if lo < 0 || hi > p.cells || lo > hi {
		return nil, CellCounts{}, fmt.Errorf("cvcp: cell range [%d, %d) outside grid of %d cells", lo, hi, p.cells)
	}
	out := make([]float64, hi-lo)
	reused := make([]bool, hi-lo)
	if err := runner.Run(ropt, cellTasks(p.ds, p.grid, p.folds, p.opt, out, reused, lo, hi)); err != nil {
		return nil, CellCounts{}, err
	}
	var counts CellCounts
	for _, hit := range reused {
		if hit {
			counts.Reused++
		}
	}
	counts.Computed = len(reused) - counts.Reused
	return out, counts, nil
}

// Finalize merges a complete set of per-cell scores — cellScores[c] is
// cell c's score, typically concatenated from ScoreRange calls — into
// the final Result: per-parameter fold means and the first-best
// parameter scan (reduceScores), the per-candidate refits with the full
// supervision, and the scorer's winner comparison. workers and limiter
// bound the refit clusterings on this node.
func (p *CellPlan) Finalize(ctx context.Context, cellScores []float64, workers int, limiter *runner.Limiter) (*Result, error) {
	if len(cellScores) != p.cells {
		return nil, fmt.Errorf("cvcp: %d cell scores for a grid of %d cells", len(cellScores), p.cells)
	}
	scores := newScoreGrid(p.grid, len(p.folds))
	c := 0
	for ci, cand := range p.grid {
		for pi := range cand.Params {
			for fi := range p.folds {
				scores[ci][pi].FoldScores[fi] = cellScores[c]
				c++
			}
		}
	}
	sels := reduceScores(p.grid, scores)
	opt := p.opt
	opt.Workers = workers
	opt.Limiter = limiter
	if err := refitFinals(ctx, p.ds, p.grid, p.full, opt, sels); err != nil {
		return nil, err
	}
	return newResult(sels, p.scorer), nil
}
