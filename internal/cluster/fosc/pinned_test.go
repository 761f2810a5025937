package fosc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"cvcp/internal/cluster/hierarchy"
	"cvcp/internal/cluster/optics"
	"cvcp/internal/constraints"
)

// extractPinnedDigest is the SHA-256 of every result of the
// TestExtractPinned sweep. Any change to it is a change of
// FOSC-OPTICSDend's flat clusterings.
const extractPinnedDigest = "0d54bfc2af36e181b9e6d9d4363fce9d645270ce6e5c752ec51c59d2f797808e"

// pinnedData draws n objects in d dimensions around 1–5 class centres,
// with their classes, rounded to integers when round is set (so bars tie
// exactly).
func pinnedData(r *rand.Rand, n, d int, round bool) ([][]float64, []int) {
	k := 1 + r.Intn(5)
	centres := make([][]float64, k)
	for c := range centres {
		centres[c] = make([]float64, d)
		for j := range centres[c] {
			centres[c][j] = 4 * r.NormFloat64()
		}
	}
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		y[i] = r.Intn(k)
		x[i] = make([]float64, d)
		for j := range x[i] {
			v := centres[y[i]][j] + r.NormFloat64()
			if round {
				v = math.Round(v)
			}
			x[i][j] = v
		}
	}
	return x, y
}

// randomPairs returns up to m constraints of one sense between random
// distinct objects of an n-object dataset.
func randomPairs(r *rand.Rand, n, m int, mustLink bool) *constraints.Set {
	s := constraints.NewSet()
	for try := 0; try < 4*m && s.Len() < m; try++ {
		if a, b := r.Intn(n), r.Intn(n); a != b {
			s.Add(a, b, mustLink)
		}
	}
	return s
}

// pinnedConstraints returns the sweep's supervision for one dataset: none,
// the pairs among a random labeled subset (Scenario I), must-links only,
// cannot-links only, and a sample of a class-stratified pool (Scenario
// II).
func pinnedConstraints(r *rand.Rand, y []int) []*constraints.Set {
	n := len(y)
	labeled := r.Perm(n)[:2+r.Intn(n-1)]
	return []*constraints.Set{
		nil,
		constraints.FromLabels(labeled, y),
		randomPairs(r, n, 1+r.Intn(30), true),
		randomPairs(r, n, 1+r.Intn(30), false),
		constraints.Sample(r, constraints.Pool(r, y, 0.3), 0.5),
	}
}

func hashInts(h hash.Hash, v ...int) {
	var buf [8]byte
	for _, i := range v {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(i)))
		h.Write(buf[:])
	}
}

// TestExtractPinned pins Extract across commits: one digest over Labels,
// NumClusters, the bits of Satisfaction, Total and SelectedNodes, on the
// OPTICS dendrograms of n 2–150 objects in 1–8 dimensions at MinPts 1, 3,
// 5 and ⌈n/3⌉, with ε unbounded and finite (components joined by +Inf
// bars), for five kinds of supervision, four minimum cluster sizes and
// the root both allowed and excluded. Integer-rounded data make bars tie,
// so the DP's tie rule decides. Skipped off amd64, where the compiler may
// fuse multiply-adds in the distances the dendrograms come from.
func TestExtractPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	h := sha256.New()
	r := rand.New(rand.NewSource(8))
	sizes := []int{2, 3, 5, 8, 13, 21, 34, 55, 89, 150}
	runs := 0
	for si, n := range sizes {
		for variant := 0; variant < 2; variant++ {
			d := 1 + (si+variant*5)%8
			x, y := pinnedData(r, n, d, variant == 0)
			sets := pinnedConstraints(r, y)
			for _, minPts := range []int{1, 3, 5, (n + 2) / 3} {
				for _, eps := range []float64{math.Inf(1), 1.5 * math.Sqrt(float64(d))} {
					res, err := optics.RunWithEps(x, minPts, eps)
					if err != nil {
						t.Fatalf("OPTICS n=%d MinPts=%d: %v", n, minPts, err)
					}
					dg, err := hierarchy.FromReachability(res)
					if err != nil {
						t.Fatalf("dendrogram n=%d MinPts=%d: %v", n, minPts, err)
					}
					for ci, cons := range sets {
						for _, minSize := range []int{0, 1, 4, minPts} {
							for _, root := range []bool{false, true} {
								cfg := Config{MinClusterSize: minSize, AllowRootCluster: root}
								got, err := Extract(dg, cons, cfg)
								if err != nil {
									t.Fatalf("n=%d MinPts=%d constraints %d %+v: %v", n, minPts, ci, cfg, err)
								}
								hashInts(h, got.Labels...)
								hashInts(h, got.NumClusters, int(math.Float64bits(got.Satisfaction)), got.Total, len(got.SelectedNodes))
								hashInts(h, got.SelectedNodes...)
								runs++
							}
						}
					}
				}
			}
		}
	}
	if want := len(sizes) * 2 * 4 * 2 * 5 * 4 * 2; runs != want {
		t.Fatalf("ran %d extractions, want %d", runs, want)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != extractPinnedDigest {
		t.Errorf("digest over %d extractions = %s, pinned %s", runs, got, extractPinnedDigest)
	}
}
