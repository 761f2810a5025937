package constraints

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
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

// refSet is the map-based set the sorted lists replaced, kept as the
// reference FuzzSetMatchesReference holds a Set to: one map per sense,
// with every reader derived from the maps on each call.
type refSet struct{ ml, cl map[Pair]struct{} }

func newRefSet() *refSet { return &refSet{ml: map[Pair]struct{}{}, cl: map[Pair]struct{}{}} }

func (r *refSet) add(a, b int, mustLink bool) {
	if mustLink {
		r.ml[MakePair(a, b)] = struct{}{}
	} else {
		r.cl[MakePair(a, b)] = struct{}{}
	}
}

// refSorted lists m's pairs by (A, B).
func refSorted(m map[Pair]struct{}) []Pair {
	out := make([]Pair, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].A < out[j].A || out[i].A == out[j].A && out[i].B < out[j].B
	})
	return out
}

func (r *refSet) constraints() []Constraint {
	var out []Constraint
	for _, p := range refSorted(r.ml) {
		out = append(out, Constraint{p, true})
	}
	for _, p := range refSorted(r.cl) {
		out = append(out, Constraint{p, false})
	}
	return out
}

func (r *refSet) involved() []int {
	seen := map[int]struct{}{}
	for _, m := range []map[Pair]struct{}{r.ml, r.cl} {
		for p := range m {
			seen[p.A], seen[p.B] = struct{}{}, struct{}{}
		}
	}
	out := make([]int, 0, len(seen))
	for i := range seen {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// validate names the smallest pair held with both senses.
func (r *refSet) validate() error {
	for _, p := range refSorted(r.ml) {
		if _, ok := r.cl[p]; ok {
			return fmt.Errorf("constraints: pair (%d,%d) is both must-link and cannot-link", p.A, p.B)
		}
	}
	return nil
}

func (r *refSet) clone() *refSet {
	return r.restrict(func(int) bool { return true })
}

func (r *refSet) restrict(keep func(int) bool) *refSet {
	out := newRefSet()
	for _, c := range r.constraints() {
		if keep(c.A) && keep(c.B) {
			out.add(c.A, c.B, c.MustLink)
		}
	}
	return out
}

// closure is the map-based closure, with the conflicts checked over the
// sorted cannot-links so that the error names the smallest one.
func (r *refSet) closure() (*refSet, error) {
	uf := NewUnionFind()
	for p := range r.ml {
		uf.Union(p.A, p.B)
	}
	compCL := map[Pair]struct{}{}
	for _, p := range refSorted(r.cl) {
		ra, rb := uf.Find(p.A), uf.Find(p.B)
		if ra == rb {
			return nil, fmt.Errorf("constraints: inconsistent input: cannot-link(%d,%d) joins one must-link component", p.A, p.B)
		}
		compCL[MakePair(ra, rb)] = struct{}{}
	}
	comps := uf.Components()
	out := newRefSet()
	for _, members := range comps {
		for i, a := range members {
			for _, b := range members[i+1:] {
				out.add(a, b, true)
			}
		}
	}
	for cp := range compCL {
		for _, a := range comps[cp.A] {
			for _, b := range comps[cp.B] {
				out.add(a, b, false)
			}
		}
	}
	return out, nil
}

func (r *refSet) components() [][]int {
	uf := NewUnionFind()
	for p := range r.ml {
		uf.Union(p.A, p.B)
	}
	for p := range r.cl {
		uf.Find(p.A)
		uf.Find(p.B)
	}
	out := [][]int{}
	for _, members := range uf.Components() {
		sort.Ints(members)
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkMatchesRef fails unless every reader of s equals the reference's.
// An empty list must also read as nil, as it does from every builder.
func checkMatchesRef(t *testing.T, step int, s *Set, ref *refSet, objects int) {
	t.Helper()
	ml, cl := s.MustLinks(), s.CannotLinks()
	if !slices.Equal(ml, refSorted(ref.ml)) || !slices.Equal(cl, refSorted(ref.cl)) {
		t.Fatalf("step %d: lists %v / %v, want %v / %v", step, ml, cl, refSorted(ref.ml), refSorted(ref.cl))
	}
	if (ml == nil) != (len(ml) == 0) || (cl == nil) != (len(cl) == 0) {
		t.Fatalf("step %d: an empty list is not nil (or a nil one not empty)", step)
	}
	if s.Len() != len(ref.ml)+len(ref.cl) || s.NumMustLink() != len(ref.ml) || s.NumCannotLink() != len(ref.cl) {
		t.Fatalf("step %d: counts %d/%d/%d, want %d/%d", step, s.Len(), s.NumMustLink(), s.NumCannotLink(), len(ref.ml), len(ref.cl))
	}
	if got, want := s.Constraints(), ref.constraints(); !slices.Equal(got, want) {
		t.Fatalf("step %d: Constraints %v, want %v", step, got, want)
	}
	for a := 0; a < objects; a++ {
		for b := 0; b < objects; b++ {
			if a == b {
				continue
			}
			_, ml := ref.ml[MakePair(a, b)]
			_, cl := ref.cl[MakePair(a, b)]
			if s.HasMustLink(a, b) != ml || s.HasCannotLink(a, b) != cl {
				t.Fatalf("step %d: Has(%d,%d) = %v/%v, want %v/%v", step, a, b, s.HasMustLink(a, b), s.HasCannotLink(a, b), ml, cl)
			}
		}
	}
	if got, want := s.Involved(), ref.involved(); !slices.Equal(got, want) {
		t.Fatalf("step %d: Involved %v, want %v", step, got, want)
	}
	if got, want := errText(s.Validate()), errText(ref.validate()); got != want {
		t.Fatalf("step %d: Validate %q, want %q", step, got, want)
	}
	if got, want := MustLinkComponents(s), ref.components(); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: MustLinkComponents %v, want %v", step, got, want)
	}
	closed, err := Closure(s)
	refClosed, refErr := ref.closure()
	if errText(err) != errText(refErr) {
		t.Fatalf("step %d: Closure error %q, want %q", step, errText(err), errText(refErr))
	}
	if err == nil && !slices.Equal(closed.Constraints(), refClosed.constraints()) {
		t.Fatalf("step %d: Closure %v, want %v", step, closed.Constraints(), refClosed.constraints())
	}
}

// FuzzSetMatchesReference runs a script of changes on a Set and on the
// map-based reference, and after every step each reader of the set must
// equal the reference's. A step is three bytes: an op and two objects
// among 12, so pairs repeat and meet with both senses. The ops are Add
// (which must leave the slices earlier reads returned as they were), a
// bulk NewSet over the script's next bytes, Restrict, Clone (changing
// the clone must leave the original as it was), Closure, which the
// script goes on with when the input is consistent, and NewSet over the
// set's own constraints.
func FuzzSetMatchesReference(f *testing.F) {
	f.Add([]byte{0x80, 1, 2, 0, 1, 2, 0x80, 2, 3, 6, 0, 0, 0, 3, 9})
	f.Add([]byte{3, 8, 0, 0x85, 2, 1, 0x86, 7, 9, 3, 5, 11, 0x80, 1, 0x8b, 4, 0xff, 0x0f})
	f.Add([]byte{0x80, 5, 4, 0x80, 4, 3, 1, 3, 5, 0x81, 9, 8, 2, 0, 1, 6, 0, 0, 5, 1, 2})
	f.Fuzz(func(t *testing.T, script []byte) {
		const objects = 12
		s, ref := NewSet(), newRefSet()
		for step := 0; len(script) >= 3; step++ {
			op, ra, rb := script[0], script[1], script[2]
			a, b, mustLink := int(ra)%objects, int(rb)%objects, op&0x80 != 0
			script = script[3:]
			switch op % 8 {
			case 0, 1, 2:
				if a == b {
					continue
				}
				ml, cl := s.MustLinks(), s.CannotLinks()
				mlWas, clWas := slices.Clone(ml), slices.Clone(cl)
				s.Add(a, b, mustLink)
				ref.add(a, b, mustLink)
				if !slices.Equal(ml, mlWas) || !slices.Equal(cl, clWas) {
					t.Fatalf("step %d: Add changed a slice an earlier read returned", step)
				}
			case 3:
				// NewSet over the next 2a bytes, one constraint per two.
				n := min(2*a, len(script)) &^ 1
				var cs []Constraint
				ref = newRefSet()
				for i := 0; i < n; i += 2 {
					x, y := int(script[i])%objects, int(script[i+1])%objects
					if x != y {
						// A pair may come with A > B: NewSet normalizes it.
						c := Constraint{Pair{x, y}, script[i]&0x80 != 0}
						cs = append(cs, c)
						ref.add(x, y, c.MustLink)
					}
				}
				script = script[n:]
				given := slices.Clone(cs)
				s = NewSet(cs...)
				if !slices.Equal(cs, given) {
					t.Fatalf("step %d: NewSet changed its input", step)
				}
			case 4:
				mask := uint(ra) | uint(rb)<<8
				keep := func(i int) bool { return mask>>i&1 == 1 }
				s, ref = s.Restrict(keep), ref.restrict(keep)
			case 5:
				c, cref := s.Clone(), ref.clone()
				if a != b {
					c.Add(a, b, mustLink)
					cref.add(a, b, mustLink)
				}
				checkMatchesRef(t, step, s, ref, objects)
				s, ref = c, cref
			case 6:
				if closed, err := Closure(s); err == nil {
					s = closed
					ref, _ = ref.closure()
				}
			case 7:
				s, ref = NewSet(s.Constraints()...), ref.clone()
			}
			checkMatchesRef(t, step, s, ref, objects)
		}
	})
}

// With several cannot-links inside must-link components, Closure names
// the smallest one on every run, whatever order maps would give.
func TestClosureNamesSmallestConflict(t *testing.T) {
	s := NewSet()
	for _, p := range []Pair{{0, 8}, {5, 8}, {1, 10}, {4, 10}, {2, 7}, {3, 11}, {9, 11}} {
		s.Add(p.A, p.B, true)
	}
	for _, p := range []Pair{{3, 9}, {2, 7}, {1, 4}, {0, 5}, {0, 1}, {2, 6}} {
		s.Add(p.A, p.B, false)
	}
	want := "constraints: inconsistent input: cannot-link(0,5) joins one must-link component"
	for run := 0; run < 200; run++ {
		if _, err := Closure(s); err == nil || err.Error() != want {
			t.Fatalf("run %d: Closure error %v, want %q", run, err, want)
		}
	}
}

// BenchmarkNewSetDescending builds one set from 100k distinct
// constraints given in descending (A, B) order, a third of them
// must-links: the bulk constructor sorts once.
func BenchmarkNewSetDescending(b *testing.B) {
	const n = 100_000
	cs := make([]Constraint, 0, n)
	for x := 0; len(cs) < n; x++ {
		for y := x + 1; y < 450 && len(cs) < n; y++ {
			cs = append(cs, Constraint{Pair{x, y}, (x+y)%3 == 0})
		}
	}
	slices.Reverse(cs)
	b.ReportAllocs()
	for b.Loop() {
		if s := NewSet(cs...); s.Len() != n {
			b.Fatalf("Len %d, want %d", s.Len(), n)
		}
	}
}
