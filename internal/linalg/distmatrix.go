package linalg

import (
	"sync"
	"sync/atomic"
)

// DistMatrix is a precomputed symmetric pairwise Euclidean distance matrix.
// Computing it costs the same O(n²·d) work as one pass of OPTICS
// core-distance computation; every subsequent consumer (each MinPts value of
// an OPTICS sweep, every fold of a cross-validation grid, silhouette-style
// evaluation) replaces its distance evaluations with O(1) lookups.
//
// Three storage layouts are supported:
//
//   - square: one flat row-major n×n float64 slice. At is a single
//     multiply-add index and Row returns a shared contiguous slice.
//   - condensed: only the strict upper triangle, n·(n-1)/2 float64
//     entries — half the memory of the square layout. The diagonal is
//     implicit (zero) and At mirrors i>j lookups. This is the layout the
//     process-wide selection run cache retains, since a resident matrix
//     per cached dataset dominates the cache's footprint.
//   - condensed32: the condensed triangle stored as float32, halving
//     memory again. Entries are computed in float64 and rounded once on
//     store, so At returns float64(float32(d)) — a documented relative
//     error of at most 2⁻²⁴ (one float32 ULP) per entry. See
//     docs/performance.md for the tolerance discussion.
//
// The float64 layouts return identical values for every (i, j), and their
// builders are blocked: pairs are swept in cache-sized tiles of rows with
// the Dist4 quad kernel computing four pairs per call. Because every Dist4
// lane is bit-identical to the scalar Dist (see kernels.go), the blocked
// builders produce exactly the bytes the naive per-pair builder
// (NewDistMatrixNaive) produces, at all block sizes — only faster.
//
// A matrix read by more than one OPTICS run also carries a table of each
// row's smallest entries (see Nearest), so the runs of a MinPts sweep
// share their core distances.
type DistMatrix struct {
	n         int
	d         []float64
	d32       []float32
	condensed bool

	nearestUses atomic.Int64 // calls to Nearest so far
	nearestOnce sync.Once
	nearest     *Nearest
}

// distBlock is the default tile width (in rows) of the blocked builders:
// 128 rows of 64-dimensional float64 data are 64 KiB, small enough that a
// tile's rows stay cache-resident across the sweep of row groups.
const distBlock = 128

// NewDistMatrix computes the pairwise distance matrix of the rows of x in
// the square layout, using the blocked quad-kernel sweep. Entries are
// bit-identical to NewDistMatrixNaive's.
func NewDistMatrix(x [][]float64) *DistMatrix {
	return newDistMatrixBlocked(x, distBlock)
}

func newDistMatrixBlocked(x [][]float64, block int) *DistMatrix {
	n := len(x)
	m := &DistMatrix{n: n, d: make([]float64, n*n)}
	buildPairs(x, block,
		func(ig, j int, d *[4]float64) {
			m.d[ig*n+j] = d[0]
			m.d[(ig+1)*n+j] = d[1]
			m.d[(ig+2)*n+j] = d[2]
			m.d[(ig+3)*n+j] = d[3]
			copy(m.d[j*n+ig:j*n+ig+4], d[:])
		},
		func(i, j int, v float64) {
			m.d[i*n+j] = v
			m.d[j*n+i] = v
		})
	return m
}

// NewDistMatrixCondensed computes the pairwise distance matrix of the rows
// of x in the condensed (strict upper triangular) layout, storing
// n·(n-1)/2 entries instead of n², using the blocked quad-kernel sweep.
func NewDistMatrixCondensed(x [][]float64) *DistMatrix {
	return newDistMatrixCondensedBlocked(x, distBlock)
}

func newDistMatrixCondensedBlocked(x [][]float64, block int) *DistMatrix {
	n := len(x)
	m := &DistMatrix{n: n, d: make([]float64, n*(n-1)/2), condensed: true}
	buildPairs(x, block,
		func(ig, j int, d *[4]float64) {
			m.d[condIdx(n, ig, j)] = d[0]
			m.d[condIdx(n, ig+1, j)] = d[1]
			m.d[condIdx(n, ig+2, j)] = d[2]
			m.d[condIdx(n, ig+3, j)] = d[3]
		},
		func(i, j int, v float64) {
			m.d[condIdx(n, i, j)] = v
		})
	return m
}

// NewDistMatrixCondensed32 computes the condensed matrix with float32
// storage: half the memory of the condensed float64 layout (a quarter of
// the square layout). Distances are computed in float64 by the same
// kernels and rounded once on store; At returns the rounded value widened
// back to float64.
func NewDistMatrixCondensed32(x [][]float64) *DistMatrix {
	n := len(x)
	m := &DistMatrix{n: n, d32: make([]float32, n*(n-1)/2), condensed: true}
	buildPairs(x, distBlock,
		func(ig, j int, d *[4]float64) {
			m.d32[condIdx(n, ig, j)] = float32(d[0])
			m.d32[condIdx(n, ig+1, j)] = float32(d[1])
			m.d32[condIdx(n, ig+2, j)] = float32(d[2])
			m.d32[condIdx(n, ig+3, j)] = float32(d[3])
		},
		func(i, j int, v float64) {
			m.d32[condIdx(n, i, j)] = float32(v)
		})
	return m
}

// NewDistMatrixNaive is the scalar reference builder: one Dist call per
// pair, no blocking, square layout. It is retained as the golden baseline
// the blocked builders are tested (and benchmarked, see cmd/bench) against.
func NewDistMatrixNaive(x [][]float64) *DistMatrix {
	n := len(x)
	m := &DistMatrix{n: n, d: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		row := m.d[i*n : (i+1)*n]
		for j := i + 1; j < n; j++ {
			v := Dist(x[i], x[j])
			row[j] = v
			m.d[j*n+i] = v
		}
	}
	return m
}

// condIdx maps (i, j) with i < j to the condensed (strict upper
// triangular) offset: rows 0..i-1 hold (n-1)+(n-2)+...+(n-i) entries; row
// i starts at that offset and holds columns i+1..n-1.
func condIdx(n, i, j int) int {
	return i*(2*n-i-1)/2 + (j - i - 1)
}

// buildPairs sweeps every pair i < j of rows of x exactly once. Row groups
// of four (the panel of a Dist4 call) are paired against every later row
// j, with j swept in tiles of block rows so a tile's rows stay cache-hot
// across all row groups; emit4 receives the four distances
// (x[ig..ig+3], x[j]). Pairs inside a row group and pairs among the
// trailing n mod 4 rows — too few for a full panel — go through emit1 with
// the scalar Dist. The tiling changes only the visit order, never the
// value: every emitted distance is bit-identical to Dist(x[i], x[j]).
func buildPairs(x [][]float64, block int, emit4 func(ig, j int, d *[4]float64), emit1 func(i, j int, v float64)) {
	n := len(x)
	if block < 1 {
		block = 1
	}
	if n >= 4 {
		panel := make([]float64, 4*len(x[0]))
		var dst [4]float64
		for jb := 0; jb < n; jb += block {
			jEnd := jb + block
			if jEnd > n {
				jEnd = n
			}
			for ig := 0; ig+4 <= n; ig += 4 {
				jStart := ig + 4
				if jStart < jb {
					jStart = jb
				}
				if jStart >= jEnd {
					continue
				}
				Pack4(panel, x[ig], x[ig+1], x[ig+2], x[ig+3])
				for j := jStart; j < jEnd; j++ {
					Dist4(&dst, x[j], panel)
					emit4(ig, j, &dst)
				}
			}
		}
		// Pairs within each full row group (j < ig+4 never reaches the
		// panel loop above).
		for ig := 0; ig+4 <= n; ig += 4 {
			for i := ig; i < ig+4; i++ {
				for j := i + 1; j < ig+4; j++ {
					emit1(i, j, Dist(x[i], x[j]))
				}
			}
		}
	}
	// Pairs among the trailing n mod 4 rows (for n < 4: all pairs).
	for i := n - n%4; i < n; i++ {
		for j := i + 1; j < n; j++ {
			emit1(i, j, Dist(x[i], x[j]))
		}
	}
}

// N returns the number of objects.
func (m *DistMatrix) N() int { return m.n }

// Condensed reports whether the matrix uses a triangular layout.
func (m *DistMatrix) Condensed() bool { return m.condensed }

// Float32 reports whether entries are stored as float32 (condensed32).
func (m *DistMatrix) Float32() bool { return m.d32 != nil }

// At returns the distance between objects i and j.
func (m *DistMatrix) At(i, j int) float64 {
	if !m.condensed {
		return m.d[i*m.n+j]
	}
	if i == j {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	if m.d32 != nil {
		return float64(m.d32[condIdx(m.n, i, j)])
	}
	return m.d[condIdx(m.n, i, j)]
}

// Row returns the distances from object i to every object, as a slice of
// length N. For the square layout it is a shared (read-only) view of the
// backing array; for the condensed layouts it is materialized into a fresh
// slice — hot loops should use RowInto with a reused buffer instead.
func (m *DistMatrix) Row(i int) []float64 {
	if !m.condensed {
		return m.d[i*m.n : (i+1)*m.n]
	}
	return m.RowInto(make([]float64, m.n), i)
}

// RowInto materializes the distances from object i to every object into
// dst, which must have length N, and returns dst. It never allocates: the
// condensed layouts are walked with two linear index strides (the column
// i entries of earlier rows, then the contiguous row i tail) instead of
// per-entry At arithmetic. OPTICS' dense driver reads each object's
// distances this way, once per object, for both its core distance and
// its expansion.
func (m *DistMatrix) RowInto(dst []float64, i int) []float64 {
	dst = ensure(dst, m.n)
	if !m.condensed {
		copy(dst, m.d[i*m.n:(i+1)*m.n])
		return dst
	}
	n := m.n
	// Entries (j, i) for j < i live at condIdx(n, j, i), which advances by
	// n-j-2 as j increments; entries (i, j) for j > i are contiguous.
	k := i - 1
	if m.d32 != nil {
		for j := 0; j < i; j++ {
			dst[j] = float64(m.d32[k])
			k += n - j - 2
		}
		dst[i] = 0
		base := condIdx(n, i, i+1)
		for j := i + 1; j < n; j++ {
			dst[j] = float64(m.d32[base+j-i-1])
		}
		return dst
	}
	for j := 0; j < i; j++ {
		dst[j] = m.d[k]
		k += n - j - 2
	}
	dst[i] = 0
	if i+1 < n {
		copy(dst[i+1:], m.d[condIdx(n, i, i+1):condIdx(n, i, i+1)+n-i-1])
	}
	return dst
}
