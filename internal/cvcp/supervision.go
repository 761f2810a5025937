package cvcp

import (
	"fmt"

	"cvcp/internal/constraints"
	"cvcp/internal/dataset"
	"cvcp/internal/stats"
)

// Fold is one train/test split of supervision, already in constraint form.
// Scorers cluster with Train and score the partition against Test; the two
// sides are constructed leak-free (no Test constraint is derivable from
// Train via the transitive closure).
type Fold struct {
	Train, Test *constraints.Set
	// Data, when non-nil, is the fold's own sub-dataset: the fold's cells
	// cluster Data — with Train and Test in Data-local indices — instead
	// of the full dataset. Stable supervisions (StableLabels) set it,
	// making each cell's score a pure function of its fold's rows.
	Data *dataset.Dataset
	// CacheKey, when non-empty, content-addresses this fold for the cell
	// cache: a digest of the fold's row content and supervision
	// parameters. Cells of folds without a CacheKey are never cached.
	CacheKey string
}

// Supervision is the partial ground truth driving a selection — the paper's
// two scenarios are the two implementations: Labels (Scenario I, §3.1.1)
// and ConstraintSet (Scenario II, §3.1.2). A Supervision knows how to turn
// itself into the evaluation splits each Scorer needs, so scorers and
// scenarios compose freely.
type Supervision interface {
	// Kind names the scenario for error messages ("labels", "constraints").
	Kind() string
	// Full returns the complete supervision as a constraint set, exactly as
	// given — the training input for scorers that do not partition
	// (validity indices).
	Full(ds *dataset.Dataset) (*constraints.Set, error)
	// CVFolds partitions the supervision into at most n leak-free
	// cross-validation folds (the count adapts downward for small
	// supervision, never below 2) and returns the refit supervision used
	// for the final clustering — the transitive closure for constraints,
	// all pairwise constraints among the labeled objects for labels.
	CVFolds(ds *dataset.Dataset, n int, seed int64) ([]Fold, *constraints.Set, error)
	// BootstrapFolds draws rounds bootstrap train / out-of-bag test splits
	// plus the refit supervision. Supervisions that cannot be resampled
	// return an error.
	BootstrapFolds(ds *dataset.Dataset, rounds int, seed int64) ([]Fold, *constraints.Set, error)
}

// Labels is Scenario I supervision (§3.1.1): the objects at the given
// indices are labeled, their labels read from the dataset's Y column.
// Constraints are derived independently inside the training side and the
// test side of each fold, which keeps the cross-validation leak-free. An
// index outside the dataset, or listed twice, fails the selection.
func Labels(idx []int) Supervision { return labelSupervision{idx: idx} }

type labelSupervision struct{ idx []int }

func (labelSupervision) Kind() string { return "labels" }

func (l labelSupervision) check(ds *dataset.Dataset) error {
	if !ds.Labeled() {
		return fmt.Errorf("cvcp: Scenario I requires a labeled dataset")
	}
	if len(l.idx) < 4 {
		return fmt.Errorf("cvcp: need at least 4 labeled objects, got %d", len(l.idx))
	}
	return l.checkIndices(ds.N())
}

// checkIndices rejects a labeled index outside [0, n) or listed twice,
// naming the first such index. It only reads, so fold construction draws
// the same random numbers whether or not it ran.
func (l labelSupervision) checkIndices(n int) error {
	seen := make([]bool, n)
	for _, i := range l.idx {
		if i < 0 || i >= n {
			return fmt.Errorf("cvcp: labeled object %d outside [0, %d)", i, n)
		}
		if seen[i] {
			return fmt.Errorf("cvcp: labeled object %d listed twice", i)
		}
		seen[i] = true
	}
	return nil
}

func (l labelSupervision) Full(ds *dataset.Dataset) (*constraints.Set, error) {
	if !ds.Labeled() {
		return nil, fmt.Errorf("cvcp: Scenario I requires a labeled dataset")
	}
	if err := l.checkIndices(ds.N()); err != nil {
		return nil, err
	}
	return constraints.FromLabels(l.idx, ds.Y), nil
}

func (l labelSupervision) CVFolds(ds *dataset.Dataset, n int, seed int64) ([]Fold, *constraints.Set, error) {
	if err := l.check(ds); err != nil {
		return nil, nil, err
	}
	n = constraints.AdaptFolds(n, len(l.idx))
	folds, err := constraints.SplitLabels(stats.NewRand(seed), l.idx, n)
	if err != nil {
		return nil, nil, err
	}
	fs := make([]Fold, len(folds))
	for i, f := range folds {
		fs[i] = Fold{
			Train: constraints.FromLabels(f.TrainIdx, ds.Y),
			Test:  constraints.FromLabels(f.TestIdx, ds.Y),
		}
	}
	return fs, constraints.FromLabels(l.idx, ds.Y), nil
}

func (l labelSupervision) BootstrapFolds(ds *dataset.Dataset, rounds int, seed int64) ([]Fold, *constraints.Set, error) {
	if !ds.Labeled() {
		return nil, nil, fmt.Errorf("cvcp: bootstrap requires a labeled dataset")
	}
	if len(l.idx) < 4 {
		return nil, nil, fmt.Errorf("cvcp: need at least 4 labeled objects, got %d", len(l.idx))
	}
	if err := l.checkIndices(ds.N()); err != nil {
		return nil, nil, err
	}
	r := stats.NewRand(seed)
	folds := make([]Fold, 0, rounds)
	for len(folds) < rounds {
		inBag := map[int]bool{}
		bag := make([]int, 0, len(l.idx))
		for i := 0; i < len(l.idx); i++ {
			o := l.idx[r.Intn(len(l.idx))]
			if !inBag[o] {
				inBag[o] = true
				bag = append(bag, o)
			}
		}
		var oob []int
		for _, o := range l.idx {
			if !inBag[o] {
				oob = append(oob, o)
			}
		}
		if len(bag) < 2 || len(oob) < 2 {
			continue // resample: degenerate bootstrap draw
		}
		folds = append(folds, Fold{
			Train: constraints.FromLabels(bag, ds.Y),
			Test:  constraints.FromLabels(oob, ds.Y),
		})
	}
	return folds, constraints.FromLabels(l.idx, ds.Y), nil
}

// ConstraintSet is Scenario II supervision (§3.1.2): a set of pairwise
// must-link / cannot-link constraints. For cross-validation the constraint
// graph is transitively closed, the involved objects are partitioned into
// folds, and constraints crossing the train/test boundary are removed,
// guaranteeing test independence. A nil set is treated as empty (usable
// only with scorers that need no supervision, such as validity indices).
// A constraint naming an object outside the dataset fails the selection.
func ConstraintSet(cons *constraints.Set) Supervision {
	return constraintSupervision{cons: cons}
}

type constraintSupervision struct{ cons *constraints.Set }

func (constraintSupervision) Kind() string { return "constraints" }

func (c constraintSupervision) set() *constraints.Set {
	if c.cons == nil {
		return constraints.NewSet()
	}
	return c.cons
}

// checkIndices rejects a constraint with an endpoint outside [0, n),
// naming the endpoint of the first such pair in sorted order.
func (c constraintSupervision) checkIndices(n int) error {
	cons := c.set()
	for _, pairs := range [][]constraints.Pair{cons.MustLinks(), cons.CannotLinks()} {
		for _, p := range pairs {
			for _, o := range [2]int{p.A, p.B} {
				if o < 0 || o >= n {
					return fmt.Errorf("cvcp: constraint (%d,%d) names object %d outside [0, %d)", p.A, p.B, o, n)
				}
			}
		}
	}
	return nil
}

func (c constraintSupervision) Full(ds *dataset.Dataset) (*constraints.Set, error) {
	if err := c.checkIndices(ds.N()); err != nil {
		return nil, err
	}
	return c.set(), nil
}

func (c constraintSupervision) CVFolds(ds *dataset.Dataset, n int, seed int64) ([]Fold, *constraints.Set, error) {
	cons := c.set()
	if cons.Len() == 0 {
		return nil, nil, fmt.Errorf("cvcp: Scenario II requires a non-empty constraint set")
	}
	if err := c.checkIndices(ds.N()); err != nil {
		return nil, nil, err
	}
	// A closure involves exactly the objects its input does, so the fold
	// count needs no closure of its own.
	n = constraints.AdaptFolds(n, len(cons.Involved()))
	cfolds, closed, err := constraints.SplitConstraints(stats.NewRand(seed), cons, n)
	if err != nil {
		return nil, nil, err
	}
	fs := make([]Fold, len(cfolds))
	for i, f := range cfolds {
		fs[i] = Fold{Train: f.Train, Test: f.Test}
	}
	return fs, closed, nil
}

func (c constraintSupervision) BootstrapFolds(*dataset.Dataset, int, int64) ([]Fold, *constraints.Set, error) {
	return nil, nil, fmt.Errorf("cvcp: bootstrap scoring requires label supervision")
}
