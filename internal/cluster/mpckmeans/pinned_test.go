package mpckmeans

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"cvcp/internal/constraints"
	"cvcp/internal/stats"
)

// runPinnedDigest is the SHA-256 of every result bit of the TestRunPinned
// sweep, recorded before the per-cluster metric terms were hoisted out of
// the E-step. Any change to it is a change of MPCK-Means' output.
const runPinnedDigest = "811c94b9d79b9f7bef2e4091de85a11087552f37266fe4419cb366095a83e908"

// pinnedData draws one sweep dataset: n in [30, 230) points in d in
// [1, 20] dimensions around 1–5 class centres, with their classes.
func pinnedData(r *rand.Rand) ([][]float64, []int) {
	n, d, k := 30+r.Intn(200), 1+r.Intn(20), 1+r.Intn(5)
	centres := make([][]float64, k)
	for c := range centres {
		centres[c] = make([]float64, d)
		for j := range centres[c] {
			centres[c][j] = 3 * r.NormFloat64()
		}
	}
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		y[i] = r.Intn(k)
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = centres[y[i]][j] + r.NormFloat64()
		}
	}
	return x, y
}

// randomPairs returns m constraints of one sense between random distinct
// objects of an n-object dataset.
func randomPairs(r *rand.Rand, n, m int, mustLink bool) *constraints.Set {
	s := constraints.NewSet()
	for s.Len() < m {
		a, b := r.Intn(n), r.Intn(n)
		if a != b {
			s.Add(a, b, mustLink)
		}
	}
	return s
}

// pinnedConstraints returns the sweep's constraint sets for one dataset:
// none, derived from labels, must-link only, cannot-link only and a
// sampled pool.
func pinnedConstraints(r *rand.Rand, y []int) []*constraints.Set {
	n := len(y)
	labeled := r.Perm(n)[:8+r.Intn(12)]
	return []*constraints.Set{
		nil,
		constraints.FromLabels(labeled, y),
		randomPairs(r, n, 5+r.Intn(40), true),
		randomPairs(r, n, 5+r.Intn(40), false),
		constraints.Sample(r, constraints.Pool(r, y, 0.1), 0.5),
	}
}

func hashFloats(h hash.Hash, v []float64) {
	var buf [8]byte
	for _, f := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
}

func hashInts(h hash.Hash, v ...int) {
	var buf [8]byte
	for _, i := range v {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(i)))
		h.Write(buf[:])
	}
}

// TestRunPinned pins MPCK-Means' output across commits: one digest over
// the bits of Labels, Centers, Metrics, Objective and Iters of 2400 runs
// spanning dimensionality, constraint shape, K above and below the number
// of must-link neighbourhoods (so clusters can empty), metric learning,
// the violation weight and the iteration cap. The worker-count goldens
// compare two runs of one build, so only this test catches a change that
// alters every result alike. Skipped off amd64, where the compiler may
// fuse multiply-adds and change the last bits legitimately.
func TestRunPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	h := sha256.New()
	runs := 0
	for ds := 0; ds < 8; ds++ {
		r := stats.NewRand(int64(1000 + ds))
		x, y := pinnedData(r)
		for ci, cons := range pinnedConstraints(r, y) {
			for _, k := range []int{1, 2, 3, 5, 9} {
				for _, learn := range []bool{false, true} {
					for _, w := range []float64{0, 0.5, 2} {
						for _, maxIter := range []int{0, 3} {
							cfg := Config{K: k, MaxIter: maxIter, Seed: int64(runs), Weight: w, LearnMetric: learn}
							res, err := Run(x, cons, cfg)
							if err != nil {
								t.Fatalf("dataset %d constraints %d %+v: %v", ds, ci, cfg, err)
							}
							hashInts(h, res.Labels...)
							for c := range res.Centers {
								hashFloats(h, res.Centers[c])
								hashFloats(h, res.Metrics[c])
							}
							hashFloats(h, []float64{res.Objective})
							hashInts(h, res.Iters)
							runs++
						}
					}
				}
			}
		}
	}
	if runs != 2400 {
		t.Fatalf("swept %d runs, want 2400", runs)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != runPinnedDigest {
		t.Errorf("digest over %d runs = %s, pinned %s", runs, got, runPinnedDigest)
	}
}
