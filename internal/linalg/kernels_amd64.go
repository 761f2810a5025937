//go:build amd64

package linalg

// The assembly kernels vectorize across lanes, not within a pair: each of
// the four accumulators lives in one SSE2 lane and follows the exact
// element order of the scalar reference, so results are bit-identical to
// SqDist/Dist while running lane-parallel subtract/multiply/add. SSE2
// is part of the amd64 baseline, so no CPU feature detection is needed.
// Callers (the exported wrappers in kernels.go) validate panel length;
// the assembly assumes len(panel) >= 4*len(a).

//go:noescape
func sqDist4(dst *[4]float64, a, panel []float64)

//go:noescape
func dist4(dst *[4]float64, a, panel []float64)
