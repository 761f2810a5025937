// Package constraints implements instance-level clustering constraints
// (must-link / cannot-link), their derivation from labeled objects, the
// transitive closure over the constraint graph, the paper's constraint pool,
// and the cross-validation fold construction of Section 3.1 that keeps
// training and test information independent.
package constraints

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Pair is an unordered pair of object indices with A < B.
type Pair struct{ A, B int }

// MakePair normalizes (a, b) into a Pair with A < B. It panics when a == b:
// self-constraints are meaningless.
func MakePair(a, b int) Pair {
	switch {
	case a == b:
		panic(fmt.Sprintf("constraints: self-pair (%d,%d)", a, b))
	case a < b:
		return Pair{a, b}
	default:
		return Pair{b, a}
	}
}

// Constraint is a pairwise instance-level constraint. MustLink true means
// the two objects should share a cluster (class 1 in the paper's
// classification view); false means they should be separated (class 0).
type Constraint struct {
	Pair
	MustLink bool
}

// Set is a deduplicated collection of constraints. The zero value is not
// usable; call NewSet. Any number of goroutines may read a Set at once;
// a change must not overlap any other use.
type Set struct {
	// index holds the pairs as maps for membership tests and changes. A
	// set FromLabels built starts without it and derives it from its
	// sorted views, under indexMu, when a caller first needs it.
	index   atomic.Pointer[pairIndex]
	indexMu sync.Mutex
	// sorted caches the views MustLinks and CannotLinks return, with
	// Validate's answer over them: built by the first read after a
	// change, dropped by every change. At least one of index and sorted
	// is always present.
	sorted atomic.Pointer[sortedViews]
}

type pairIndex struct{ ml, cl map[Pair]struct{} }

type sortedViews struct {
	ml, cl []Pair

	validated sync.Once
	conflict  error // Validate's answer, set under validated
}

// NewSet returns an empty constraint set.
func NewSet() *Set {
	s := &Set{}
	s.index.Store(&pairIndex{ml: map[Pair]struct{}{}, cl: map[Pair]struct{}{}})
	return s
}

// pairs returns the set's maps, deriving them from the sorted views the
// first time a set FromLabels built needs them. Concurrent first readers
// wait for one derivation.
func (s *Set) pairs() *pairIndex {
	if x := s.index.Load(); x != nil {
		return x
	}
	s.indexMu.Lock()
	defer s.indexMu.Unlock()
	if x := s.index.Load(); x != nil {
		return x
	}
	v := s.sorted.Load()
	x := &pairIndex{ml: pairSet(v.ml), cl: pairSet(v.cl)}
	s.index.Store(x)
	return x
}

func pairSet(ps []Pair) map[Pair]struct{} {
	m := make(map[Pair]struct{}, len(ps))
	for _, p := range ps {
		m[p] = struct{}{}
	}
	return m
}

// Add inserts the constraint between a and b. Adding the same pair with the
// opposite sense records a direct conflict, which Validate and Closure
// report; the later Add does not silently overwrite the earlier one.
func (s *Set) Add(a, b int, mustLink bool) {
	p := MakePair(a, b)
	x := s.pairs()
	if mustLink {
		x.ml[p] = struct{}{}
	} else {
		x.cl[p] = struct{}{}
	}
	if s.sorted.Load() != nil {
		s.sorted.Store(nil)
	}
}

// AddConstraint inserts c.
func (s *Set) AddConstraint(c Constraint) { s.Add(c.A, c.B, c.MustLink) }

// Len returns the total number of constraints.
func (s *Set) Len() int {
	ml, cl := s.counts()
	return ml + cl
}

// NumMustLink returns the number of must-link constraints.
func (s *Set) NumMustLink() int {
	ml, _ := s.counts()
	return ml
}

// NumCannotLink returns the number of cannot-link constraints.
func (s *Set) NumCannotLink() int {
	_, cl := s.counts()
	return cl
}

// counts reads the must-link and cannot-link counts from whichever form
// the set holds, deriving neither.
func (s *Set) counts() (ml, cl int) {
	if x := s.index.Load(); x != nil {
		return len(x.ml), len(x.cl)
	}
	v := s.sorted.Load()
	return len(v.ml), len(v.cl)
}

// HasMustLink reports whether the pair (a,b) is a must-link constraint.
func (s *Set) HasMustLink(a, b int) bool {
	_, ok := s.pairs().ml[MakePair(a, b)]
	return ok
}

// HasCannotLink reports whether the pair (a,b) is a cannot-link constraint.
func (s *Set) HasCannotLink(a, b int) bool {
	_, ok := s.pairs().cl[MakePair(a, b)]
	return ok
}

// Constraints returns all constraints in deterministic (sorted) order:
// must-links first, then cannot-links, each sorted by (A, B).
func (s *Set) Constraints() []Constraint {
	v := s.views()
	out := make([]Constraint, 0, s.Len())
	for _, p := range v.ml {
		out = append(out, Constraint{Pair: p, MustLink: true})
	}
	for _, p := range v.cl {
		out = append(out, Constraint{Pair: p, MustLink: false})
	}
	return out
}

// MustLinks returns the must-link pairs in sorted order. The slice is
// shared with every other reader until the set changes: callers must not
// modify it.
func (s *Set) MustLinks() []Pair { return s.views().ml }

// CannotLinks returns the cannot-link pairs in sorted order. The slice is
// shared with every other reader until the set changes: callers must not
// modify it.
func (s *Set) CannotLinks() []Pair { return s.views().cl }

// views returns the sorted pair views, sorting the maps only when no read
// since the last change has. Concurrent first readers each build identical
// views; whichever is stored last stays.
func (s *Set) views() *sortedViews {
	if v := s.sorted.Load(); v != nil {
		return v
	}
	x := s.pairs()
	v := &sortedViews{ml: sortedPairs(x.ml), cl: sortedPairs(x.cl)}
	s.sorted.Store(v)
	return v
}

// Involved returns the sorted indices of all objects that appear in at least
// one constraint.
func (s *Set) Involved() []int {
	x := s.pairs()
	seen := map[int]struct{}{}
	for p := range x.ml {
		seen[p.A] = struct{}{}
		seen[p.B] = struct{}{}
	}
	for p := range x.cl {
		seen[p.A] = struct{}{}
		seen[p.B] = struct{}{}
	}
	out := make([]int, 0, len(seen))
	for i := range seen {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	x, c := s.pairs(), NewSet()
	cx := c.pairs()
	for p := range x.ml {
		cx.ml[p] = struct{}{}
	}
	for p := range x.cl {
		cx.cl[p] = struct{}{}
	}
	return c
}

// Validate reports an error if any pair is constrained both must-link and
// cannot-link, naming the smallest such pair. The answer is kept with the
// sorted views it walks, so a set is walked once however many cells
// validate it, and a change drops both.
func (s *Set) Validate() error {
	v := s.views()
	v.validated.Do(func() { v.conflict = firstConflict(v.ml, v.cl) })
	return v.conflict
}

// firstConflict returns an error naming the smallest pair in both sorted
// lists, or nil.
func firstConflict(ml, cl []Pair) error {
	for len(ml) > 0 && len(cl) > 0 {
		switch c := comparePairs(ml[0], cl[0]); {
		case c < 0:
			ml = ml[1:]
		case c > 0:
			cl = cl[1:]
		default:
			return fmt.Errorf("constraints: pair (%d,%d) is both must-link and cannot-link", ml[0].A, ml[0].B)
		}
	}
	return nil
}

// Restrict returns the subset of constraints whose endpoints are both in
// keep (given as a membership predicate over object indices).
func (s *Set) Restrict(keep func(int) bool) *Set {
	x, out := s.pairs(), NewSet()
	ox := out.pairs()
	for p := range x.ml {
		if keep(p.A) && keep(p.B) {
			ox.ml[p] = struct{}{}
		}
	}
	for p := range x.cl {
		if keep(p.A) && keep(p.B) {
			ox.cl[p] = struct{}{}
		}
	}
	return out
}

func sortedPairs(m map[Pair]struct{}) []Pair {
	out := make([]Pair, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	slices.SortFunc(out, comparePairs)
	return out
}

// comparePairs orders pairs by (A, B).
func comparePairs(a, b Pair) int { return cmp.Or(cmp.Compare(a.A, b.A), cmp.Compare(a.B, b.B)) }

// FromLabels derives the full set of constraints among the given labeled
// objects: a must-link for every same-label pair and a cannot-link for every
// different-label pair (paper §3.1.1). y maps object index to class label.
// It panics when an index repeats, as Add does on a self-pair.
//
// Over sorted indices the pairs (idx[i], idx[j]), i < j, come out in (A, B)
// order, so each list is already its sorted view; the maps wait until a
// caller needs them.
func FromLabels(indices []int, y []int) *Set {
	idx := slices.Clone(indices)
	slices.Sort(idx)
	nml := 0
	for i, a := range idx {
		for _, b := range idx[i+1:] {
			if y[a] == y[b] {
				nml++
			}
		}
	}
	all := make([]Pair, len(idx)*(len(idx)-1)/2)
	ml, cl := all[:0:nml], all[nml:nml]
	for i, a := range idx {
		for _, b := range idx[i+1:] {
			if p := MakePair(a, b); y[a] == y[b] {
				ml = append(ml, p)
			} else {
				cl = append(cl, p)
			}
		}
	}
	s := &Set{}
	s.sorted.Store(&sortedViews{ml: ml, cl: cl})
	return s
}
