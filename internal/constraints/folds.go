package constraints

import (
	"fmt"
	"math/rand"
	"sort"
)

// AdaptFolds lowers a requested cross-validation fold count so that each
// fold receives at least three of the given supervised objects, never going
// below 2 folds. A test fold needs several objects before the constraints
// derived from it include must-links with useful probability; with fewer
// than three objects per fold the constraint classifier is scored almost
// exclusively on cannot-links, which over-merging and over-noising
// clusterings can both satisfy. Note the floor of 2 wins over the
// three-per-fold target when the supervision is tiny (e.g. 4 objects still
// yield 2 folds of 2), so callers must tolerate 2-object test folds.
func AdaptFolds(want, objects int) int {
	n := want
	if max := objects / 3; n > max {
		n = max
	}
	if n < 2 {
		n = 2
	}
	return n
}

// LabelFold is one train/test split of labeled objects for the paper's
// Scenario I (§3.1.1). TrainIdx holds the labeled objects of the n-1
// training folds combined; TestIdx holds the held-out fold. Constraints are
// derived from each side independently with FromLabels, so by construction
// no test information is available during training.
type LabelFold struct {
	TrainIdx []int
	TestIdx  []int
}

// SplitLabels partitions the labeled object indices into nFolds random folds
// and returns the n train/test splits. Every fold must receive at least two
// objects (otherwise no test constraint can be derived), so it returns an
// error when len(indices) < 2*nFolds.
func SplitLabels(r *rand.Rand, indices []int, nFolds int) ([]LabelFold, error) {
	if nFolds < 2 {
		return nil, fmt.Errorf("constraints: need at least 2 folds, got %d", nFolds)
	}
	if len(indices) < 2*nFolds {
		return nil, fmt.Errorf("constraints: %d labeled objects cannot fill %d folds with >=2 objects each", len(indices), nFolds)
	}
	folds := partition(r, indices, nFolds)
	out := make([]LabelFold, nFolds)
	for i := range folds {
		var train []int
		for j, f := range folds {
			if j != i {
				train = append(train, f...)
			}
		}
		sort.Ints(train)
		test := append([]int(nil), folds[i]...)
		sort.Ints(test)
		out[i] = LabelFold{TrainIdx: train, TestIdx: test}
	}
	return out, nil
}

// ConstraintFold is one train/test split of a constraint set for the paper's
// Scenario II (§3.1.2). Train and Test are each transitively closed within
// their side; every constraint crossing the object partition has been
// removed, so the test information is independent of the training
// information.
type ConstraintFold struct {
	Train        *Set
	Test         *Set
	TrainObjects []int
	TestObjects  []int
}

// SplitConstraints implements the paper's Scenario II fold construction:
// it first extends s to its transitive closure, partitions the objects
// involved in any constraint into nFolds folds, deletes all constraints
// between a training-fold object and a test-fold object, and keeps each
// side's (already closed) constraints. It returns the folds and the
// closure, or an error for inconsistent constraint sets or when the
// involved objects cannot fill the folds.
func SplitConstraints(r *rand.Rand, s *Set, nFolds int) ([]ConstraintFold, *Set, error) {
	if nFolds < 2 {
		return nil, nil, fmt.Errorf("constraints: need at least 2 folds, got %d", nFolds)
	}
	closed, err := Closure(s)
	if err != nil {
		return nil, nil, err
	}
	objects := closed.Involved()
	if len(objects) < 2*nFolds {
		return nil, nil, fmt.Errorf("constraints: %d constrained objects cannot fill %d folds with >=2 objects each", len(objects), nFolds)
	}
	folds := partition(r, objects, nFolds)
	out := make([]ConstraintFold, nFolds)
	for i := range folds {
		test := map[int]bool{}
		for _, o := range folds[i] {
			test[o] = true
		}
		train := make([]int, 0, len(objects)-len(folds[i]))
		for _, o := range objects {
			if !test[o] {
				train = append(train, o)
			}
		}
		testIdx := append([]int(nil), folds[i]...)
		sort.Ints(testIdx)
		out[i] = ConstraintFold{
			Train:        closed.Restrict(func(o int) bool { return !test[o] }),
			Test:         closed.Restrict(func(o int) bool { return test[o] }),
			TrainObjects: train,
			TestObjects:  testIdx,
		}
	}
	return out, closed, nil
}

// NaiveSplitConstraints partitions the raw constraint *edges* (not objects)
// into folds without computing the closure first — the flawed procedure the
// paper warns against in §3.1: information from training folds leaks into
// test folds through the transitive closure. It exists only to quantify that
// leakage in the ablation benchmarks and must not be used for model
// selection.
func NaiveSplitConstraints(r *rand.Rand, s *Set, nFolds int) ([]ConstraintFold, error) {
	if nFolds < 2 {
		return nil, fmt.Errorf("constraints: need at least 2 folds, got %d", nFolds)
	}
	all := s.Constraints()
	if len(all) < nFolds {
		return nil, fmt.Errorf("constraints: %d constraints cannot fill %d folds", len(all), nFolds)
	}
	perm := r.Perm(len(all))
	buckets := make([][]Constraint, nFolds)
	for pos, j := range perm {
		buckets[pos%nFolds] = append(buckets[pos%nFolds], all[j])
	}
	out := make([]ConstraintFold, nFolds)
	for i := range buckets {
		var rest []Constraint
		for j, b := range buckets {
			if j != i {
				rest = append(rest, b...)
			}
		}
		train, test := NewSet(rest...), NewSet(buckets[i]...)
		out[i] = ConstraintFold{
			Train:        train,
			Test:         test,
			TrainObjects: train.Involved(),
			TestObjects:  test.Involved(),
		}
	}
	return out, nil
}

// partition shuffles items and deals them into n nearly equal folds
// (sizes differ by at most one).
func partition(r *rand.Rand, items []int, n int) [][]int {
	shuffled := append([]int(nil), items...)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	folds := make([][]int, n)
	for i, it := range shuffled {
		folds[i%n] = append(folds[i%n], it)
	}
	return folds
}
