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
	// limiter). Its Context field is superseded by the ctx argument of
	// Select when that is non-nil.
	Options Options
}

// Result is the outcome of a unified selection: one Selection per grid
// candidate plus the overall winner under the scorer's comparison.
type Result struct {
	// Winner points at the best entry of PerCandidate.
	Winner *Selection
	// PerCandidate holds every candidate's selection, in Grid order.
	PerCandidate []*Selection
}

// Select is the single entry point of the framework: it scores every
// candidate of spec.Grid against spec.Supervision with spec.Scorer and
// returns the per-candidate selections plus the overall winner.
//
// The entire workload — every (candidate, parameter, fold) cell — is
// dispatched through the execution engine as one run: one worker pool, one
// shared Limiter and one run cache serve all candidates, and every cell's
// seed derives from its grid position, so results are bit-identical for
// every worker count and identical to scoring each candidate alone.
//
// ctx cancels the selection mid-grid; when non-nil it supersedes
// spec.Options.Context.
func Select(ctx context.Context, spec Spec) (*Result, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	opt := spec.Options
	if ctx != nil {
		opt.Context = ctx
	}
	scorer := spec.Scorer
	if scorer == nil {
		scorer = CrossValidation{}
	}
	sels, err := scorer.Score(spec.Dataset, spec.Grid, spec.Supervision, opt)
	if err != nil {
		return nil, err
	}
	res := &Result{PerCandidate: sels}
	for _, sel := range sels {
		if res.Winner == nil || scorer.Better(sel.Best.Score, res.Winner.Best.Score) {
			res.Winner = sel
		}
	}
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
