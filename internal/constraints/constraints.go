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

// Set is a deduplicated collection of constraints: the must-link and the
// cannot-link pairs, each list sorted by (A, B) without repeats, and the
// smallest pair both lists hold. The zero value is an empty set. Any
// number of goroutines may read a Set at once; a change must not overlap
// any other use.
type Set struct {
	ml, cl []Pair
	// conflict is the smallest pair in both lists, or the zero Pair,
	// which no constraint can be, when there is none.
	conflict Pair
}

// NewSet returns the set of the given constraints, in any order: it sorts
// them once, drops repeats and finds the smallest pair given with both
// senses in one merge walk. cs is not modified.
func NewSet(cs ...Constraint) *Set {
	nml := 0
	for _, c := range cs {
		if c.MustLink {
			nml++
		}
	}
	ml, cl := make([]Pair, 0, nml), make([]Pair, 0, len(cs)-nml)
	for _, c := range cs {
		if p := MakePair(c.A, c.B); c.MustLink {
			ml = append(ml, p)
		} else {
			cl = append(cl, p)
		}
	}
	slices.SortFunc(ml, comparePairs)
	slices.SortFunc(cl, comparePairs)
	return sortedSet(slices.Compact(ml), slices.Compact(cl))
}

// sortedSet returns the set of the sorted, repeat-free lists ml and cl,
// finding the smallest pair they share in one merge walk.
func sortedSet(ml, cl []Pair) *Set {
	s := &Set{ml: orNil(ml), cl: orNil(cl)}
	for len(ml) > 0 && len(cl) > 0 {
		switch c := comparePairs(ml[0], cl[0]); {
		case c < 0:
			ml = ml[1:]
		case c > 0:
			cl = cl[1:]
		default:
			s.conflict = ml[0]
			return s
		}
	}
	return s
}

// orNil returns ps, or nil when it is empty, so that an empty list reads
// the same whichever builder made it.
func orNil(ps []Pair) []Pair {
	if len(ps) == 0 {
		return nil
	}
	return ps
}

// Add inserts the constraint between a and b. Adding the same pair with the
// opposite sense records a direct conflict, which Validate and Closure
// report; the later Add does not silently overwrite the earlier one. Each
// Add that lands before the end of its list copies the list, so a set
// built from unsorted input should come from NewSet.
func (s *Set) Add(a, b int, mustLink bool) {
	p := MakePair(a, b)
	list, other := &s.cl, s.ml
	if mustLink {
		list, other = &s.ml, s.cl
	}
	i, found := slices.BinarySearchFunc(*list, p, comparePairs)
	if found {
		return
	}
	if i < len(*list) {
		// Insert into a copy: a slice an earlier read returned keeps its
		// contents.
		*list = slices.Clip(*list)
	}
	*list = slices.Insert(*list, i, p)
	if has(other, p) && (s.conflict == Pair{} || comparePairs(p, s.conflict) < 0) {
		s.conflict = p
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
func (s *Set) HasMustLink(a, b int) bool { return has(s.ml, MakePair(a, b)) }

// HasCannotLink reports whether the pair (a,b) is a cannot-link constraint.
func (s *Set) HasCannotLink(a, b int) bool { return has(s.cl, MakePair(a, b)) }

// has reports whether the sorted list ps holds p.
func has(ps []Pair, p Pair) bool {
	_, ok := slices.BinarySearchFunc(ps, p, comparePairs)
	return ok
}

// Constraints returns all constraints in deterministic (sorted) order:
// must-links first, then cannot-links, each sorted by (A, B).
func (s *Set) Constraints() []Constraint {
	out := make([]Constraint, 0, s.Len())
	for _, p := range s.ml {
		out = append(out, Constraint{Pair: p, MustLink: true})
	}
	for _, p := range s.cl {
		out = append(out, Constraint{Pair: p, MustLink: false})
	}
	return out
}

// MustLinks returns the must-link pairs in sorted order. The slice is
// shared with every other reader: callers must not modify it.
func (s *Set) MustLinks() []Pair { return s.ml }

// CannotLinks returns the cannot-link pairs in sorted order. The slice is
// shared with every other reader: callers must not modify it.
func (s *Set) CannotLinks() []Pair { return s.cl }

// Involved returns the sorted indices of all objects that appear in at least
// one constraint.
func (s *Set) Involved() []int {
	out := make([]int, 0, 2*s.Len())
	for _, ps := range [][]Pair{s.ml, s.cl} {
		for _, p := range ps {
			out = append(out, p.A, p.B)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	return &Set{ml: slices.Clone(s.ml), cl: slices.Clone(s.cl), conflict: s.conflict}
}

// Validate reports an error if any pair is constrained both must-link and
// cannot-link, naming the smallest such pair.
func (s *Set) Validate() error {
	if s.conflict == (Pair{}) {
		return nil
	}
	return fmt.Errorf("constraints: pair (%d,%d) is both must-link and cannot-link", s.conflict.A, s.conflict.B)
}

// Restrict returns the subset of constraints whose endpoints are both in
// keep (given as a membership predicate over object indices).
func (s *Set) Restrict(keep func(int) bool) *Set {
	filter := func(ps []Pair) []Pair {
		var out []Pair
		for _, p := range ps {
			if keep(p.A) && keep(p.B) {
				out = append(out, p)
			}
		}
		return out
	}
	return sortedSet(filter(s.ml), filter(s.cl))
}

// comparePairs orders pairs by (A, B). It compares B only on a tie in A:
// the sorts that build a set spend most of their time here.
func comparePairs(a, b Pair) int {
	if a.A != b.A {
		return cmp.Compare(a.A, b.A)
	}
	return cmp.Compare(a.B, b.B)
}

// FromLabels derives the full set of constraints among the given labeled
// objects: a must-link for every same-label pair and a cannot-link for every
// different-label pair (paper §3.1.1). y maps object index to class label.
// It panics when an index repeats, as Add does on a self-pair.
//
// Over sorted indices the pairs (idx[i], idx[j]), i < j, come out in (A, B)
// order, so each list is sorted as it is emitted, and no pair has both
// senses.
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
	return &Set{ml: orNil(ml), cl: orNil(cl)}
}
