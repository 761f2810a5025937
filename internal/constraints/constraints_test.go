package constraints

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestMakePair(t *testing.T) {
	p := MakePair(5, 2)
	if p.A != 2 || p.B != 5 {
		t.Errorf("MakePair(5,2) = %+v", p)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on self-pair")
		}
	}()
	MakePair(3, 3)
}

func TestSetAddAndQuery(t *testing.T) {
	s := NewSet()
	s.Add(1, 2, true)
	s.Add(4, 3, false)
	s.Add(2, 1, true) // duplicate in reversed order
	if s.Len() != 2 || s.NumMustLink() != 1 || s.NumCannotLink() != 1 {
		t.Errorf("Len=%d ML=%d CL=%d", s.Len(), s.NumMustLink(), s.NumCannotLink())
	}
	if !s.HasMustLink(2, 1) || s.HasMustLink(1, 3) {
		t.Error("HasMustLink")
	}
	if !s.HasCannotLink(3, 4) || s.HasCannotLink(1, 2) {
		t.Error("HasCannotLink")
	}
}

func TestSetConstraintsOrderDeterministic(t *testing.T) {
	s := NewSet()
	s.Add(5, 1, false)
	s.Add(2, 3, true)
	s.Add(0, 9, true)
	got := s.Constraints()
	want := []Constraint{
		{Pair{0, 9}, true},
		{Pair{2, 3}, true},
		{Pair{1, 5}, false},
	}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Constraints[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestInvolved(t *testing.T) {
	s := NewSet()
	s.Add(7, 2, true)
	s.Add(2, 4, false)
	got := s.Involved()
	want := []int{2, 4, 7}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("Involved = %v", got)
	}
}

func TestValidateConflict(t *testing.T) {
	s := NewSet()
	s.Add(1, 2, true)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	s.Add(1, 2, false)
	if err := s.Validate(); err == nil {
		t.Error("expected conflict error")
	}
}

// Validate keeps its answer with the sorted views, so a change must drop
// it: a conflict added after a first Validate is reported, on a set in
// its FromLabels form and on one built by Add, and again on a second
// Validate of the changed set.
func TestValidateSeesConflictAddedLater(t *testing.T) {
	y := []int{0, 0, 1, 0, 1, 0, 0, 1}
	added := NewSet()
	for _, c := range FromLabels([]int{4, 1, 7, 2}, y).Constraints() {
		added.AddConstraint(c)
	}
	for name, s := range map[string]*Set{"FromLabels": FromLabels([]int{4, 1, 7, 2}, y), "Add": added} {
		for range 2 {
			if err := s.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		s.Add(7, 2, false) // (2,7) is a must-link
		for range 2 {
			if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "pair (2,7)") {
				t.Fatalf("%s: Validate() = %v, want the conflict on pair (2,7)", name, err)
			}
		}
	}
}

// With several conflicting pairs, Validate names the smallest one, so the
// error does not depend on map iteration order.
func TestValidateNamesSmallestConflict(t *testing.T) {
	s := NewSet()
	for _, p := range []Pair{{7, 8}, {2, 9}, {2, 5}, {4, 6}} {
		s.Add(p.A, p.B, true)
		s.Add(p.A, p.B, false)
	}
	for i := 0; i < 20; i++ {
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), "pair (2,5)") {
			t.Fatalf("Validate() = %v, want the conflict on pair (2,5)", err)
		}
	}
}

// randomSet returns a set of n random pairs over 200 objects, about half
// of them must-links.
func randomSet(r *rand.Rand, n int) *Set {
	s := NewSet()
	for s.Len() < n {
		a, b := r.Intn(200), r.Intn(200)
		if a != b && !s.HasMustLink(a, b) && !s.HasCannotLink(a, b) {
			s.Add(a, b, r.Intn(2) == 0)
		}
	}
	return s
}

// Goroutines reading a fresh set at once all see the same sorted views,
// whichever of them builds the views first (run under -race).
func TestSortedViewsConcurrentReaders(t *testing.T) {
	s := randomSet(rand.New(rand.NewSource(5)), 2000)
	ref := s.Clone()
	wantML, wantCL, wantAll := ref.MustLinks(), ref.CannotLinks(), ref.Constraints()
	if !slices.IsSortedFunc(wantML, comparePairs) || !slices.IsSortedFunc(wantCL, comparePairs) {
		t.Fatal("views not sorted by (A, B)")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := s.Validate(); err != nil {
					t.Error(err)
				}
				if !slices.Equal(s.MustLinks(), wantML) || !slices.Equal(s.CannotLinks(), wantCL) {
					t.Error("a concurrent reader saw different sorted views")
					return
				}
				if !slices.Equal(s.Constraints(), wantAll) {
					t.Error("a concurrent reader saw different constraints")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// A change after a read shows in the next read, and a slice an earlier
// read returned keeps its contents.
func TestSortedViewsSeeAdd(t *testing.T) {
	s := NewSet()
	s.Add(4, 5, true)
	s.Add(1, 9, false)
	ml, cl := s.MustLinks(), s.CannotLinks()
	s.Add(2, 3, true)
	s.Add(0, 7, false)
	if got, want := s.MustLinks(), []Pair{{2, 3}, {4, 5}}; !slices.Equal(got, want) {
		t.Errorf("MustLinks after Add = %v, want %v", got, want)
	}
	if got, want := s.CannotLinks(), []Pair{{0, 7}, {1, 9}}; !slices.Equal(got, want) {
		t.Errorf("CannotLinks after Add = %v, want %v", got, want)
	}
	if got := s.Constraints(); len(got) != 4 || got[0] != (Constraint{Pair{2, 3}, true}) {
		t.Errorf("Constraints after Add = %v", got)
	}
	if !slices.Equal(ml, []Pair{{4, 5}}) || !slices.Equal(cl, []Pair{{1, 9}}) {
		t.Errorf("earlier views changed: %v, %v", ml, cl)
	}
}

func TestCloneIndependent(t *testing.T) {
	s := NewSet()
	s.Add(1, 2, true)
	c := s.Clone()
	c.Add(3, 4, false)
	if s.Len() != 1 || c.Len() != 2 {
		t.Errorf("clone not independent: %d, %d", s.Len(), c.Len())
	}
}

func TestRestrict(t *testing.T) {
	s := NewSet()
	s.Add(1, 2, true)
	s.Add(2, 3, false)
	s.Add(4, 5, true)
	keep := map[int]bool{1: true, 2: true, 3: true}
	r := s.Restrict(func(i int) bool { return keep[i] })
	if r.Len() != 2 || !r.HasMustLink(1, 2) || !r.HasCannotLink(2, 3) || r.HasMustLink(4, 5) {
		t.Errorf("Restrict = %v", r.Constraints())
	}
}

func TestFromLabels(t *testing.T) {
	y := []int{0, 0, 1, 1}
	s := FromLabels([]int{0, 1, 2, 3}, y)
	// Pairs: (0,1) ML, (2,3) ML, and 4 CL cross pairs.
	if s.NumMustLink() != 2 || s.NumCannotLink() != 4 {
		t.Errorf("ML=%d CL=%d", s.NumMustLink(), s.NumCannotLink())
	}
	if !s.HasMustLink(0, 1) || !s.HasMustLink(2, 3) || !s.HasCannotLink(0, 2) {
		t.Error("wrong constraint types")
	}
}

// Property: FromLabels over k indices yields exactly k(k-1)/2 constraints,
// and every constraint's sense matches the labels.
func TestFromLabelsProperty(t *testing.T) {
	f := func(labels [7]uint8) bool {
		y := make([]int, 7)
		idx := make([]int, 7)
		for i, l := range labels {
			y[i] = int(l % 3)
			idx[i] = i
		}
		s := FromLabels(idx, y)
		if s.Len() != 21 {
			return false
		}
		for _, c := range s.Constraints() {
			if c.MustLink != (y[c.A] == y[c.B]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// addedLabels builds FromLabels' set the way it was built before it
// emitted its views directly: every pair added one by one.
func addedLabels(idx, y []int) *Set {
	s := NewSet()
	for i, a := range idx {
		for _, b := range idx[i+1:] {
			s.Add(a, b, y[a] == y[b])
		}
	}
	return s
}

// setReaders reads every observable of a set, each through one entry
// point, so that each can be the first reader of a fresh set. Each
// result is flattened to slices of comparable values.
var setReaders = []struct {
	name string
	read func(*Set) any
}{
	{"views", func(s *Set) any { return [][]Pair{s.MustLinks(), s.CannotLinks()} }},
	{"counts", func(s *Set) any { return []int{s.Len(), s.NumMustLink(), s.NumCannotLink()} }},
	{"Constraints", func(s *Set) any { return s.Constraints() }},
	{"Validate", func(s *Set) any { return []error{s.Validate()} }},
	{"Has", func(s *Set) any {
		var out []bool
		for a := 0; a < 60; a++ {
			for b := 0; b < 60; b++ {
				if a != b {
					out = append(out, s.HasMustLink(a, b), s.HasCannotLink(a, b))
				}
			}
		}
		return out
	}},
	{"Involved", func(s *Set) any { return s.Involved() }},
	{"Clone", func(s *Set) any { return s.Clone().Constraints() }},
	{"Restrict", func(s *Set) any { return s.Restrict(func(i int) bool { return i%3 != 0 }).Constraints() }},
	{"Closure", func(s *Set) any {
		c, err := Closure(s)
		if err != nil {
			return err.Error()
		}
		return c.Constraints()
	}},
	{"MustLinkComponents", func(s *Set) any { return MustLinkComponents(s) }},
	{"Add", func(s *Set) any {
		s.Add(59, 58, true)
		if ml := s.MustLinks(); len(ml) > 0 {
			s.Add(ml[0].B, ml[0].A, false) // a conflict Validate must see
		}
		return []any{s.Constraints(), s.Len(), s.Validate()}
	}},
}

// FromLabels on unsorted indices must answer every reader as the same
// pairs added one by one do, whichever reader comes first, before and
// after an Add.
func TestFromLabelsMatchesAddedPairs(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		idx := r.Perm(58)[:r.Intn(30)]
		y := make([]int, 60)
		for i := range y {
			y[i] = r.Intn(1 + trial%4)
		}
		if slices.IsSorted(idx) && len(idx) > 2 {
			t.Fatalf("trial %d: indices %v already sorted", trial, idx)
		}
		for _, rd := range setReaders {
			got, want := rd.read(FromLabels(idx, y)), rd.read(addedLabels(idx, y))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, %d indices, %s: FromLabels gives %v, added pairs %v", trial, len(idx), rd.name, got, want)
			}
		}
		// Once one reader has derived the maps, the others still agree.
		s, ref := FromLabels(idx, y), addedLabels(idx, y)
		for _, rd := range setReaders {
			if got, want := rd.read(s), rd.read(ref); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, %s after the readers before it: %v, want %v", trial, rd.name, got, want)
			}
		}
	}
}

// Reading a FromLabels set's views, counts and constraints, as FOSC and
// MPCK-Means do, derives no maps.
func TestFromLabelsReadsWithoutMaps(t *testing.T) {
	s := FromLabels([]int{5, 2, 9, 1}, []int{0, 1, 0, 1, 0, 1, 0, 1, 0, 1})
	if s.Len() != 6 || s.NumMustLink() != 3 || len(s.MustLinks()) != 3 || len(s.CannotLinks()) != 3 ||
		len(s.Constraints()) != 6 || s.Validate() != nil {
		t.Fatalf("FromLabels set: %v", s.Constraints())
	}
	if s.index.Load() != nil {
		t.Error("a read that needs no maps derived them")
	}
}

// A repeated index is a self-pair, which FromLabels refuses as Add does.
func TestFromLabelsRepeatedIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromLabels accepted a repeated index")
		}
	}()
	FromLabels([]int{4, 1, 3, 1}, []int{0, 1, 0, 1, 0})
}

// Goroutines reading a fresh FromLabels set at once through the readers
// that need its maps all see the pairs it was built from, whichever of
// them derives the maps (run under -race).
func TestFromLabelsConcurrentReaders(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	idx := r.Perm(58)[:40]
	y := make([]int, 60)
	for i := range y {
		y[i] = r.Intn(3)
	}
	ref := addedLabels(idx, y)
	readers := setReaders[:len(setReaders)-1] // all but Add, a change
	want := make([]any, len(readers))
	for i, rd := range readers {
		want[i] = rd.read(ref)
	}
	for round := 0; round < 5; round++ {
		s := FromLabels(idx, y)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Each goroutine starts at a different reader, so the
				// first reads race through different entry points.
				for k := range readers {
					i := (g + k) % len(readers)
					if got := readers[i].read(s); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("%s from a concurrent reader = %v, want %v", readers[i].name, got, want[i])
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
