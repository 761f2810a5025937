package linalg

import "math"

// Quad kernels: the building blocks of the blocked DistMatrix builders.
//
// Go's compiler never reassociates floating-point arithmetic, so a single
// pairwise distance is an inherently serial chain of adds — unrolling one
// pair 4-wide would change the summation order (and therefore the bits) to
// buy instruction-level parallelism. These kernels unroll ACROSS pairs
// instead: one call computes a's distance against four rows
// simultaneously, giving the CPU four independent accumulation chains
// while each chain keeps the exact element order of the scalar reference
// (SqDist, Dist). Every lane of the result is therefore bit-identical
// to the corresponding scalar call — the property the DistMatrix golden
// tests and the selection engine's bit-identical-results bar rely on.
//
// The four rows are consumed in element-interleaved "panel" form
// (panel[4*i+k] = b_k[i], see Pack4): the amd64 implementation then loads
// two pairs per 16-byte SSE2 register and runs lane-parallel
// subtract/multiply/add, halving the per-element FP µop count relative to
// the scalar loop. Packing costs one linear pass, which the builders
// amortize over a whole tile of kernel calls. On non-amd64 platforms the
// pure-Go fallback computes the same four sequential sums.

// Pack4 packs rows b0..b3 into panel in element-interleaved order:
// panel[4*i+k] = b_k[i]. The rows must share one length and panel must
// hold at least 4·len(b0) entries. The packed panel is what SqDist4 and
// Dist4 consume.
func Pack4(panel, b0, b1, b2, b3 []float64) {
	checkLen(b0, b1)
	checkLen(b0, b2)
	checkLen(b0, b3)
	if len(panel) < 4*len(b0) {
		panic("linalg: Pack4 panel too short")
	}
	for i, v := range b0 {
		panel[4*i] = v
		panel[4*i+1] = b1[i]
		panel[4*i+2] = b2[i]
		panel[4*i+3] = b3[i]
	}
}

// SqDist4 computes the four squared Euclidean distances from a to the rows
// packed in panel: dst[k] = SqDist(a, b_k). Each result is bit-identical
// to the scalar SqDist.
func SqDist4(dst *[4]float64, a, panel []float64) {
	if len(panel) < 4*len(a) {
		panic("linalg: SqDist4 panel too short")
	}
	sqDist4(dst, a, panel)
}

// Dist4 computes the four Euclidean distances from a to the rows packed in
// panel: dst[k] = Dist(a, b_k). Each result is bit-identical to the scalar
// Dist (IEEE 754 square root is correctly rounded, in SIMD lanes too).
func Dist4(dst *[4]float64, a, panel []float64) {
	if len(panel) < 4*len(a) {
		panic("linalg: Dist4 panel too short")
	}
	dist4(dst, a, panel)
}

// sqDist4Generic is the portable reference implementation of SqDist4:
// four independent accumulators, each following the scalar element order.
func sqDist4Generic(dst *[4]float64, a, panel []float64) {
	var s0, s1, s2, s3 float64
	for i, v := range a {
		d0 := v - panel[4*i]
		d1 := v - panel[4*i+1]
		d2 := v - panel[4*i+2]
		d3 := v - panel[4*i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	dst[0], dst[1], dst[2], dst[3] = s0, s1, s2, s3
}

// dist4Generic is the portable reference implementation of Dist4.
func dist4Generic(dst *[4]float64, a, panel []float64) {
	sqDist4Generic(dst, a, panel)
	dst[0] = math.Sqrt(dst[0])
	dst[1] = math.Sqrt(dst[1])
	dst[2] = math.Sqrt(dst[2])
	dst[3] = math.Sqrt(dst[3])
}
