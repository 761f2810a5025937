package constraints

import (
	"fmt"
	"slices"
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
// some cannot-link connects two objects of the same must-link component;
// it names the smallest such cannot-link.
func Closure(s *Set) (*Set, error) {
	uf := NewUnionFind()
	for _, p := range s.ml {
		uf.Union(p.A, p.B)
	}

	// Conflicts and component-level cannot-link pairs.
	var compCL []Pair
	for _, p := range s.cl {
		ra, rb := uf.Find(p.A), uf.Find(p.B)
		if ra == rb {
			return nil, fmt.Errorf("constraints: inconsistent input: cannot-link(%d,%d) joins one must-link component", p.A, p.B)
		}
		compCL = append(compCL, MakePair(ra, rb))
	}
	slices.SortFunc(compCL, comparePairs)
	compCL = slices.Compact(compCL)

	// Distinct components and distinct component pairs give distinct
	// object pairs, so each list needs one sort and no deduplication.
	comps := uf.Components()
	var ml, cl []Pair
	for _, members := range comps {
		slices.Sort(members)
		for i, a := range members {
			for _, b := range members[i+1:] {
				ml = append(ml, Pair{a, b})
			}
		}
	}
	slices.SortFunc(ml, comparePairs)
	for _, cp := range compCL {
		for _, a := range comps[cp.A] {
			for _, b := range comps[cp.B] {
				cl = append(cl, MakePair(a, b))
			}
		}
	}
	slices.SortFunc(cl, comparePairs)
	return &Set{ml: ml, cl: cl}, nil
}

// MustLinkComponents returns the must-link connected components of s as
// sorted member slices, in deterministic order (by smallest member). Objects
// appearing only in cannot-links are included as singletons.
func MustLinkComponents(s *Set) [][]int {
	uf := NewUnionFind()
	for _, p := range s.ml {
		uf.Union(p.A, p.B)
	}
	for _, p := range s.cl {
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
