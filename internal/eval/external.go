package eval

import "sort"

// OverallF computes the Overall F-Measure between a clustering and the
// ground-truth classes, restricted to the evaluation objects in eval (all
// objects when eval is nil). Following the paper's protocol, callers pass
// the objects NOT involved in the supervision given to the algorithm.
//
// For each ground-truth class j the best-matching cluster i is found by the
// pairwise F-measure F(j,i) = 2·n_ij / (|class j| + |cluster i|), and the
// Overall F-Measure is the class-size-weighted average of the best matches.
// Each noise object (cluster label < 0) is treated as its own singleton
// cluster, so unclustered objects can match only classes of size one.
func OverallF(labels, truth []int, eval []int) float64 {
	idx := eval
	if idx == nil {
		idx = make([]int, len(labels))
		for i := range idx {
			idx[i] = i
		}
	}
	if len(idx) == 0 {
		return 0
	}
	// Renumber noise objects into singleton clusters.
	clusterOf := make(map[int]int, len(idx))
	next := 0
	remap := map[int]int{}
	for _, o := range idx {
		l := labels[o]
		if l < 0 {
			clusterOf[o] = next
			next++
			continue
		}
		id, ok := remap[l]
		if !ok {
			id = next
			next++
			remap[l] = id
		}
		clusterOf[o] = id
	}
	clusterSize := make([]int, next)
	classSize := map[int]int{}
	inter := map[[2]int]int{} // (class, cluster) -> count
	for _, o := range idx {
		c := clusterOf[o]
		clusterSize[c]++
		classSize[truth[o]]++
		inter[[2]int{truth[o], c}]++
	}
	bestF := map[int]float64{}
	for key, nij := range inter {
		class, cluster := key[0], key[1]
		f := 2 * float64(nij) / float64(classSize[class]+clusterSize[cluster])
		if f > bestF[class] {
			bestF[class] = f
		}
	}
	classes := make([]int, 0, len(classSize))
	for c := range classSize {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	var total float64
	for _, c := range classes {
		total += float64(classSize[c]) / float64(len(idx)) * bestF[c]
	}
	return total
}
