package constraints

import (
	"fmt"
	"sort"
)

// Closure computes the transitive closure of s (paper §3.1, Figure 2):
//
//   - must-link is an equivalence: all pairs within a must-link-connected
//     component become must-link constraints;
//   - a cannot-link between any members of two components induces
//     cannot-link constraints between *all* cross-component pairs.
//
// Objects that appear only in cannot-link constraints form singleton
// components. Closure returns an error when the input is inconsistent, i.e.
// some cannot-link connects two objects of the same must-link component.
func Closure(s *Set) (*Set, error) {
	x := s.pairs()
	uf := NewUnionFind()
	for p := range x.ml {
		uf.Union(p.A, p.B)
	}
	for p := range x.cl {
		uf.Find(p.A)
		uf.Find(p.B)
	}

	// Conflicts and component-level cannot-link pairs.
	compCL := map[Pair]struct{}{}
	for p := range x.cl {
		ra, rb := uf.Find(p.A), uf.Find(p.B)
		if ra == rb {
			return nil, fmt.Errorf("constraints: inconsistent input: cannot-link(%d,%d) joins one must-link component", p.A, p.B)
		}
		compCL[MakePair(ra, rb)] = struct{}{}
	}

	comps := uf.Components()
	for _, members := range comps {
		sort.Ints(members)
	}

	out := NewSet()
	ox := out.pairs()
	for _, members := range comps {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				ox.ml[Pair{members[i], members[j]}] = struct{}{}
			}
		}
	}
	for cp := range compCL {
		for _, a := range comps[cp.A] {
			for _, b := range comps[cp.B] {
				ox.cl[MakePair(a, b)] = struct{}{}
			}
		}
	}
	return out, nil
}

// MustLinkComponents returns the must-link connected components of s as
// sorted member slices, in deterministic order (by smallest member). Objects
// appearing only in cannot-links are included as singletons.
func MustLinkComponents(s *Set) [][]int {
	x := s.pairs()
	uf := NewUnionFind()
	for p := range x.ml {
		uf.Union(p.A, p.B)
	}
	for p := range x.cl {
		uf.Find(p.A)
		uf.Find(p.B)
	}
	comps := uf.Components()
	out := make([][]int, 0, len(comps))
	for _, members := range comps {
		sort.Ints(members)
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
