package constraints

import (
	"math"
	"math/rand"
)

// Pool builds the paper's candidate constraint pool (§4.1): it selects
// objFrac of the objects from each class (at least one per class) and
// generates all pairwise constraints among the selected objects. y maps
// object index to class label; labels < 0 are ignored.
func Pool(r *rand.Rand, y []int, objFrac float64) *Set {
	byClass := map[int][]int{}
	var classes []int
	for i, c := range y {
		if c < 0 {
			continue
		}
		if _, ok := byClass[c]; !ok {
			classes = append(classes, c)
		}
		byClass[c] = append(byClass[c], i)
	}
	var chosen []int
	for _, c := range classes {
		members := byClass[c]
		k := int(math.Round(objFrac * float64(len(members))))
		if k < 1 {
			k = 1
		}
		if k > len(members) {
			k = len(members)
		}
		perm := r.Perm(len(members))
		for _, j := range perm[:k] {
			chosen = append(chosen, members[j])
		}
	}
	return FromLabels(chosen, y)
}

// Sample returns a uniformly random subset containing frac of the
// constraints in s (at least one, at most all), drawn without replacement.
func Sample(r *rand.Rand, s *Set, frac float64) *Set {
	all := s.Constraints()
	k := int(math.Round(frac * float64(len(all))))
	if k < 1 {
		k = 1
	}
	if k > len(all) {
		k = len(all)
	}
	picked := make([]Constraint, k)
	for i, j := range r.Perm(len(all))[:k] {
		picked[i] = all[j]
	}
	return NewSet(picked...)
}
