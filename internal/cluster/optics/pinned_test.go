package optics

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"cvcp/internal/linalg"
)

// opticsPinnedDigests are the SHA-256s of TestOpticsPinned's sweep, one
// per driver, recorded on the indexed-heap dense driver. The two
// RunWithEps digests were re-recorded when the VP-tree stopped pruning
// subtrees behind a NaN bound. Any change to one is a change of that
// driver's output.
var opticsPinnedDigests = map[string]string{
	"Run":                       "1ec71c9906909d3b58dc342b52441e19aafc306b69a664a72b44232d8dcdd60c",
	"RunWithMatrix/square":      "1ec71c9906909d3b58dc342b52441e19aafc306b69a664a72b44232d8dcdd60c",
	"RunWithMatrix/condensed":   "1ec71c9906909d3b58dc342b52441e19aafc306b69a664a72b44232d8dcdd60c",
	"RunWithMatrix/condensed32": "f1f103a584fb2920a736b693c47a4985c52226bcf587d299ca4ea158d1ed8b52",
	"RunWithEps/inf":            "1ec71c9906909d3b58dc342b52441e19aafc306b69a664a72b44232d8dcdd60c",
	"RunWithEps/finite":         "5e9a8c0bb57bd021cff932473ee7fdf6ba5f6c97ad83487c17201c4581816e7d",
}

// pinnedRows draws one sweep dataset of n rows in d dimensions: Gaussian
// blobs, rounded to integers when round is set (so distances tie
// exactly), with some rows duplicated and, when huge is set, one row
// moved to ±1e300 and copied once, so its distances to every other row
// overflow to +Inf while the copy stays at distance 0.
func pinnedRows(r *rand.Rand, n, d int, round, huge bool) [][]float64 {
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
		if i > 0 && r.Intn(6) == 0 {
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
	if huge && n > 1 {
		big := r.Intn(n)
		for j := range x[big] {
			x[big][j] = 1e300
			if r.Intn(2) == 0 {
				x[big][j] = -1e300
			}
		}
		if n > 3 {
			x[(big+1+r.Intn(n-1))%n] = append([]float64(nil), x[big]...)
		}
	}
	return x
}

func hashResult(h hash.Hash, res *Result) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(res.Order)))
	for p, i := range res.Order {
		put(uint64(i))
		put(math.Float64bits(res.Reach[p]))
	}
	for _, c := range res.Core {
		put(math.Float64bits(c))
	}
}

// TestOpticsPinned pins every OPTICS driver's output across commits: one
// digest per driver over the bits of Order, Reach and Core on datasets
// spanning n 1–200 and d 1–16, with duplicate rows, integer-rounded
// coordinates (so reachabilities tie exactly and the index tie-break
// decides the order) and rows near ±1e300 (so distances overflow to
// +Inf), at MinPts 1, 2, 3, 5, ⌈n/2⌉, n and n+1. The same-build
// comparisons (RunWithEps at +Inf against Run, float32 against float64)
// would pass a change that moved every driver alike; these digests do
// not. RunWithEps at +Inf keeps an entry of its own, equal to Run's: on
// the overflowing rows its VP-tree pruning bounds evaluate +Inf − +Inf,
// and a NaN bound must visit its subtree, not drop the neighbours Run
// keeps. Skipped off amd64, where the compiler may fuse multiply-adds.
func TestOpticsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	hs := map[string]hash.Hash{}
	for name := range opticsPinnedDigests {
		hs[name] = sha256.New()
	}
	r := rand.New(rand.NewSource(16))
	sizes := []int{1, 2, 3, 4, 5, 7, 9, 12, 16, 23, 31, 40, 57, 64, 80, 101, 128, 150, 177, 200}
	cases := 0
	for si, n := range sizes {
		for variant := 0; variant < 3; variant++ {
			d := 1 + (si*3+variant*5)%16
			round, huge := variant != 1, variant == 2
			x := pinnedRows(r, n, d, round, huge)
			eps := 1.5 * math.Sqrt(float64(d))
			mats := map[string]*linalg.DistMatrix{
				"RunWithMatrix/square":      linalg.NewDistMatrix(x),
				"RunWithMatrix/condensed":   linalg.NewDistMatrixCondensed(x),
				"RunWithMatrix/condensed32": linalg.NewDistMatrixCondensed32(x),
			}
			for _, minPts := range []int{1, 2, 3, 5, (n + 1) / 2, n, n + 1} {
				runs := map[string]func() (*Result, error){
					"Run":               func() (*Result, error) { return Run(x, minPts) },
					"RunWithEps/inf":    func() (*Result, error) { return RunWithEps(x, minPts, math.Inf(1)) },
					"RunWithEps/finite": func() (*Result, error) { return RunWithEps(x, minPts, eps) },
				}
				for name, dm := range mats {
					runs[name] = func() (*Result, error) { return RunWithMatrix(dm, minPts) }
				}
				for name, run := range runs {
					res, err := run()
					if err != nil {
						t.Fatalf("%s n=%d d=%d MinPts=%d: %v", name, n, d, minPts, err)
					}
					hashResult(hs[name], res)
				}
				cases++
			}
		}
	}
	if cases != len(sizes)*3*7 {
		t.Fatalf("swept %d cases, want %d", cases, len(sizes)*3*7)
	}
	for name, want := range opticsPinnedDigests {
		if got := hex.EncodeToString(hs[name].Sum(nil)); got != want {
			t.Errorf("%s: digest over %d cases = %s, pinned %s", name, cases, got, want)
		}
	}
}
