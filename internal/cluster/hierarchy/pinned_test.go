package hierarchy

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"cvcp/internal/cluster/optics"
)

// dendrogramPinnedDigest is the SHA-256 of every node and every LCA
// answer of the TestDendrogramPinned sweep. Any change to it is a change
// of the dendrogram FOSC extracts from.
const dendrogramPinnedDigest = "ba5ef85877625417f8c48c505a787a9afae2e66e4dcb82e874433a625e1dafad"

// pinnedRows draws n rows in d dimensions around 1–4 centres, rounded to
// integers when round is set (so reachabilities tie exactly), with about
// one row in five a copy of an earlier row (zero-height bars).
func pinnedRows(r *rand.Rand, n, d int, round bool) [][]float64 {
	k := 1 + r.Intn(4)
	centres := make([][]float64, k)
	for c := range centres {
		centres[c] = make([]float64, d)
		for j := range centres[c] {
			centres[c][j] = 4 * r.NormFloat64()
		}
	}
	x := make([][]float64, n)
	for i := range x {
		if i > 0 && r.Intn(5) == 0 {
			x[i] = append([]float64(nil), x[r.Intn(i)]...)
			continue
		}
		c := centres[r.Intn(k)]
		x[i] = make([]float64, d)
		for j := range x[i] {
			v := c[j] + r.NormFloat64()
			if round {
				v = math.Round(v)
			}
			x[i][j] = v
		}
	}
	return x
}

func hashInts(h hash.Hash, v ...int) {
	var buf [8]byte
	for _, i := range v {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(i)))
		h.Write(buf[:])
	}
}

// TestDendrogramPinned pins FromReachability and NewLCA across commits:
// one digest over every node's fields (children, parent, height bits,
// point, size), the root, and the LCA of every pair of objects, on OPTICS
// orderings of n 1–160 objects in 1–8 dimensions at MinPts 1, 2, 3, 5,
// ⌈n/2⌉ and n+1, with ε unbounded (one component, all bars finite unless
// MinPts exceeds n) and finite (several components joined by +Inf bars).
// Integer-rounded and duplicated rows make bars tie, so the (height,
// position) order decides the merges. Skipped off amd64, where the
// compiler may fuse multiply-adds in the distances OPTICS orders by.
func TestDendrogramPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	h := sha256.New()
	r := rand.New(rand.NewSource(22))
	sizes := []int{1, 2, 3, 4, 6, 9, 13, 20, 31, 47, 64, 90, 121, 160}
	trees, infBars := 0, 0
	for si, n := range sizes {
		for variant := 0; variant < 2; variant++ {
			d := 1 + (si+variant*3)%8
			x := pinnedRows(r, n, d, variant == 0)
			for _, minPts := range []int{1, 2, 3, 5, (n + 1) / 2, n + 1} {
				for _, eps := range []float64{math.Inf(1), 1.2 * math.Sqrt(float64(d))} {
					res, err := optics.RunWithEps(x, minPts, eps)
					if err != nil {
						t.Fatalf("OPTICS n=%d d=%d MinPts=%d eps=%v: %v", n, d, minPts, eps, err)
					}
					dg, err := FromReachability(res)
					if err != nil {
						t.Fatalf("n=%d d=%d MinPts=%d eps=%v: %v", n, d, minPts, eps, err)
					}
					hashInts(h, dg.N, dg.Root, len(dg.Nodes))
					for _, nd := range dg.Nodes {
						hashInts(h, nd.Left, nd.Right, nd.Parent, int(math.Float64bits(nd.Height)), nd.Point, nd.Size)
						if math.IsInf(nd.Height, 1) {
							infBars++
						}
					}
					l := NewLCA(dg)
					for a := 0; a < n; a++ {
						for b := a; b < n; b++ {
							hashInts(h, l.Query(a, b))
						}
					}
					trees++
				}
			}
		}
	}
	if trees != len(sizes)*2*6*2 || infBars == 0 {
		t.Fatalf("built %d dendrograms with %d +Inf bars, want %d with some", trees, infBars, len(sizes)*2*6*2)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != dendrogramPinnedDigest {
		t.Errorf("digest over %d dendrograms = %s, pinned %s", trees, got, dendrogramPinnedDigest)
	}
}
