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
	ml map[Pair]struct{}
	cl map[Pair]struct{}
	// sorted caches the views MustLinks and CannotLinks return: built by
	// the first read after a change, dropped by every change.
	sorted atomic.Pointer[sortedViews]
}

type sortedViews struct{ ml, cl []Pair }

// NewSet returns an empty constraint set.
func NewSet() *Set {
	return &Set{ml: map[Pair]struct{}{}, cl: map[Pair]struct{}{}}
}

// Add inserts the constraint between a and b. Adding the same pair with the
// opposite sense records a direct conflict, which Validate and Closure
// report; the later Add does not silently overwrite the earlier one.
func (s *Set) Add(a, b int, mustLink bool) {
	p := MakePair(a, b)
	if mustLink {
		s.ml[p] = struct{}{}
	} else {
		s.cl[p] = struct{}{}
	}
	if s.sorted.Load() != nil {
		s.sorted.Store(nil)
	}
}

// AddConstraint inserts c.
func (s *Set) AddConstraint(c Constraint) { s.Add(c.A, c.B, c.MustLink) }

// Len returns the total number of constraints.
func (s *Set) Len() int { return len(s.ml) + len(s.cl) }

// NumMustLink returns the number of must-link constraints.
func (s *Set) NumMustLink() int { return len(s.ml) }

// NumCannotLink returns the number of cannot-link constraints.
func (s *Set) NumCannotLink() int { return len(s.cl) }

// HasMustLink reports whether the pair (a,b) is a must-link constraint.
func (s *Set) HasMustLink(a, b int) bool {
	_, ok := s.ml[MakePair(a, b)]
	return ok
}

// HasCannotLink reports whether the pair (a,b) is a cannot-link constraint.
func (s *Set) HasCannotLink(a, b int) bool {
	_, ok := s.cl[MakePair(a, b)]
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
	v := &sortedViews{ml: sortedPairs(s.ml), cl: sortedPairs(s.cl)}
	s.sorted.Store(v)
	return v
}

// Involved returns the sorted indices of all objects that appear in at least
// one constraint.
func (s *Set) Involved() []int {
	seen := map[int]struct{}{}
	for p := range s.ml {
		seen[p.A] = struct{}{}
		seen[p.B] = struct{}{}
	}
	for p := range s.cl {
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
	c := NewSet()
	for p := range s.ml {
		c.ml[p] = struct{}{}
	}
	for p := range s.cl {
		c.cl[p] = struct{}{}
	}
	return c
}

// Validate reports an error if any pair is constrained both must-link and
// cannot-link, naming the smallest such pair.
func (s *Set) Validate() error {
	v := s.views()
	ml, cl := v.ml, v.cl
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
	out := NewSet()
	for p := range s.ml {
		if keep(p.A) && keep(p.B) {
			out.ml[p] = struct{}{}
		}
	}
	for p := range s.cl {
		if keep(p.A) && keep(p.B) {
			out.cl[p] = struct{}{}
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
func FromLabels(indices []int, y []int) *Set {
	s := NewSet()
	for i := 0; i < len(indices); i++ {
		for j := i + 1; j < len(indices); j++ {
			a, b := indices[i], indices[j]
			s.Add(a, b, y[a] == y[b])
		}
	}
	return s
}
