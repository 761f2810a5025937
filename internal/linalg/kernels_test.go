package linalg

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// quadWant computes the scalar-reference results for one panel call.
func quadWant(a, b0, b1, b2, b3 []float64, f func(x, y []float64) float64) [4]float64 {
	return [4]float64{f(a, b0), f(a, b1), f(a, b2), f(a, b3)}
}

// The kernels' contract is stronger than the "within 1 ULP" floor the
// benchmark harness documents: because every lane accumulates in the exact
// element order of the scalar loop, results must be BIT-identical to
// SqDist/Dist. This is what lets the blocked DistMatrix builders (and
// through them, whole selections) stay bit-identical to the naive path.
func TestKernelsBitIdenticalToScalar(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	// Random lengths with every tail residue (0–3 mod 4, and 1–3 absolute)
	// plus zero-length rows.
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 13, 16, 31, 64, 65, 66, 67, 100, 127}
	for _, d := range lengths {
		for trial := 0; trial < 20; trial++ {
			mk := func() []float64 {
				v := make([]float64, d)
				for i := range v {
					v[i] = r.NormFloat64() * math.Pow(10, float64(r.Intn(7)-3))
				}
				return v
			}
			a, b0, b1, b2, b3 := mk(), mk(), mk(), mk(), mk()
			panel := make([]float64, 4*d)
			Pack4(panel, b0, b1, b2, b3)

			var got [4]float64
			SqDist4(&got, a, panel)
			if want := quadWant(a, b0, b1, b2, b3, SqDist); got != want {
				t.Fatalf("SqDist4 d=%d: got %v want %v", d, got, want)
			}
			sqDist4Generic(&got, a, panel)
			if want := quadWant(a, b0, b1, b2, b3, SqDist); got != want {
				t.Fatalf("sqDist4Generic d=%d: got %v want %v", d, got, want)
			}
			Dist4(&got, a, panel)
			if want := quadWant(a, b0, b1, b2, b3, Dist); got != want {
				t.Fatalf("Dist4 d=%d: got %v want %v", d, got, want)
			}
			dist4Generic(&got, a, panel)
			if want := quadWant(a, b0, b1, b2, b3, Dist); got != want {
				t.Fatalf("dist4Generic d=%d: got %v want %v", d, got, want)
			}
		}
	}
}

func TestPack4(t *testing.T) {
	b0 := []float64{1, 5}
	b1 := []float64{2, 6}
	b2 := []float64{3, 7}
	b3 := []float64{4, 8}
	panel := make([]float64, 8)
	Pack4(panel, b0, b1, b2, b3)
	want := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	for i := range want {
		if panel[i] != want[i] {
			t.Fatalf("panel[%d] = %v, want %v", i, panel[i], want[i])
		}
	}
}

func TestKernelPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	var dst [4]float64
	a := []float64{1, 2}
	short := []float64{1, 2, 3} // < 4*len(a)
	expectPanic("SqDist4", func() { SqDist4(&dst, a, short) })
	expectPanic("Dist4", func() { Dist4(&dst, a, short) })
	expectPanic("Pack4 short panel", func() { Pack4(short, a, a, a, a) })
	expectPanic("Pack4 mismatched rows", func() {
		Pack4(make([]float64, 8), a, a, a, []float64{1})
	})
}

// fuzzRows decodes a fuzz payload into one query row and four target rows
// of equal length, sanitizing non-finite values (the kernels are only
// specified over finite inputs; NaN payload propagation is not part of the
// contract).
func fuzzRows(data []byte) (a, b0, b1, b2, b3 []float64) {
	const maxD = 67 // covers several whole blocks plus every tail residue
	d := 1 + len(data)/(5*8)
	if d > maxD {
		d = maxD
	}
	rows := make([][]float64, 5)
	for r := range rows {
		rows[r] = make([]float64, d)
		for i := 0; i < d; i++ {
			off := (r*d + i) * 8
			var bits uint64
			if off+8 <= len(data) {
				bits = binary.LittleEndian.Uint64(data[off : off+8])
			} else {
				bits = uint64(off) * 0x9e3779b97f4a7c15
			}
			v := math.Float64frombits(bits)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = float64(bits%2048) - 1024
			}
			// Clamp magnitudes so squared terms stay finite: the scalar
			// reference and the kernels must then agree exactly.
			if math.Abs(v) > 1e150 {
				v = math.Mod(v, 1e150)
			}
			rows[r][i] = v
		}
	}
	return rows[0], rows[1], rows[2], rows[3], rows[4]
}

// FuzzKernelsMatchScalar go-fuzzes the quad kernels against the scalar
// reference on random lengths (including tails of 1–3). The assertion is
// exact bit equality — stricter than the documented 1-ULP requirement —
// because lane accumulation preserves the scalar element order.
func FuzzKernelsMatchScalar(f *testing.F) {
	r := rand.New(rand.NewSource(91))
	for _, n := range []int{1, 2, 3, 5, 40, 330} {
		seed := make([]byte, n*8)
		for i := range seed {
			seed[i] = byte(r.Intn(256))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b0, b1, b2, b3 := fuzzRows(data)
		panel := make([]float64, 4*len(a))
		Pack4(panel, b0, b1, b2, b3)
		var got [4]float64
		SqDist4(&got, a, panel)
		if want := quadWant(a, b0, b1, b2, b3, SqDist); got != want {
			t.Fatalf("SqDist4 d=%d: got %v want %v", len(a), got, want)
		}
		Dist4(&got, a, panel)
		if want := quadWant(a, b0, b1, b2, b3, Dist); got != want {
			t.Fatalf("Dist4 d=%d: got %v want %v", len(a), got, want)
		}
	})
}

func benchRows(n, d int) [][]float64 {
	r := rand.New(rand.NewSource(1))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = r.NormFloat64()
		}
	}
	return rows
}

var benchSink float64

// BenchmarkSqDistKernels compares the scalar reference against the quad
// kernel on 64-dimensional rows (the ALOI dimensionality): per-op work is
// four pairwise squared distances either way.
func BenchmarkSqDistKernels(b *testing.B) {
	rows := benchRows(5, 64)
	panel := make([]float64, 4*64)
	Pack4(panel, rows[1], rows[2], rows[3], rows[4])
	b.Run("scalar4x", func(b *testing.B) {
		b.SetBytes(4 * 64 * 8)
		var s float64
		for i := 0; i < b.N; i++ {
			s += SqDist(rows[0], rows[1])
			s += SqDist(rows[0], rows[2])
			s += SqDist(rows[0], rows[3])
			s += SqDist(rows[0], rows[4])
		}
		benchSink = s
	})
	b.Run("quad", func(b *testing.B) {
		b.SetBytes(4 * 64 * 8)
		var dst [4]float64
		var s float64
		for i := 0; i < b.N; i++ {
			SqDist4(&dst, rows[0], panel)
			s += dst[0] + dst[1] + dst[2] + dst[3]
		}
		benchSink = s
	})
}
