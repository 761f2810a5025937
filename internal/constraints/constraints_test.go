package constraints

import (
	"math/rand"
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
