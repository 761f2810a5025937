package cvcp

import (
	"context"
	"fmt"

	"cvcp/internal/dataset"
)

// Candidate pairs an algorithm with its candidate parameter range — one
// column of the selection grid.
type Candidate struct {
	Algorithm Algorithm
	Params    []int
}

// Grid is the candidate set of one selection: every (algorithm, parameter)
// combination it spans is scored, and the per-algorithm winners compete for
// the overall selection. A single-entry Grid is ordinary parameter
// selection; multiple entries extend the framework across clustering
// paradigms (the paper's final future-work item).
type Grid []Candidate

// Spec is a complete, declarative description of one model selection: what
// to cluster (Dataset), which configurations compete (Grid), which partial
// ground truth drives the choice (Supervision) and how candidates are
// scored (Scorer). New scenarios compose existing pieces instead of adding
// entry points.
type Spec struct {
	// Dataset is the data under selection.
	Dataset *dataset.Dataset
	// Grid holds the candidate (algorithm, parameter-range) pairs.
	Grid Grid
	// Supervision is the partial ground truth: Labels (Scenario I) or
	// ConstraintSet (Scenario II).
	Supervision Supervision
	// Scorer is the scoring strategy; nil means CrossValidation{}, the
	// paper's CVCP criterion.
	Scorer Scorer
	// Options carries the run parameters (folds, seed, workers, progress,
	// limiter, cell cache).
	Options Options
}

// Result is the outcome of a unified selection: one Selection per grid
// candidate plus the overall winner under the scorer's comparison.
type Result struct {
	// Winner points at the best entry of PerCandidate.
	Winner *Selection
	// PerCandidate holds every candidate's selection, in Grid order.
	PerCandidate []*Selection
	// Cells splits the scored grid's cells into those computed this run
	// and those served from Options.CellCache. Zero for Validity, which
	// scores no cell grid.
	Cells CellCounts
}

// Select is the single entry point of the framework: it scores every
// candidate of spec.Grid against spec.Supervision with spec.Scorer and
// returns the per-candidate selections plus the overall winner.
//
// A partition scorer's selection is its CellPlan (PlanCells): every
// (candidate, parameter, fold) cell is dispatched through the execution
// engine as one run under the Options' workers, limiter and progress —
// one worker pool, one Limiter acquisition stream and one run cache serve
// all candidates — and Finalize refits and picks the winner. Every cell's
// seed derives from its grid position, so results are bit-identical for
// every worker count and identical to scoring each candidate alone.
// Validity sweeps each candidate's parameters once instead.
//
// ctx cancels the selection mid-grid; nil means context.Background().
func Select(ctx context.Context, spec Spec) (*Result, error) {
	if v, ok := spec.Scorer.(Validity); ok {
		return v.sweep(ctx, spec)
	}
	plan, err := PlanCells(spec)
	if err != nil {
		return nil, err
	}
	opt := spec.Options
	scores, cells, err := plan.scoreCells(0, plan.cells, opt.engineOptions(ctx))
	if err != nil {
		return nil, err
	}
	res, err := plan.Finalize(ctx, scores, opt.workers(), opt.Limiter)
	if err != nil {
		return nil, err
	}
	res.Cells = cells
	return res, nil
}

// validate rejects a spec with no data, no candidates, a nil algorithm, an
// empty parameter range or no supervision.
func (s Spec) validate() error {
	if s.Dataset == nil || s.Dataset.N() == 0 {
		return fmt.Errorf("cvcp: empty dataset")
	}
	if len(s.Grid) == 0 {
		return fmt.Errorf("cvcp: no candidate algorithms")
	}
	for _, cand := range s.Grid {
		if cand.Algorithm == nil {
			return fmt.Errorf("cvcp: nil algorithm")
		}
		if len(cand.Params) == 0 {
			return fmt.Errorf("cvcp: empty parameter range")
		}
	}
	if s.Supervision == nil {
		return fmt.Errorf("cvcp: nil supervision")
	}
	return nil
}
