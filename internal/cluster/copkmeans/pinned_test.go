package copkmeans

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"cvcp/internal/constraints"
	"cvcp/internal/stats"
)

// copkPinnedDigest is the SHA-256 of every result bit of the
// TestCOPKMeansPinned sweep, k-means++ seeding included. Any change to it
// is a change of COP-KMeans' output.
const copkPinnedDigest = "3f9c9e011a6f26e0306828ebdc2c6e1da5fea2903132ecc79cfb475c508bb1b7"

// pinnedData draws one sweep dataset: n in [20, 180) points in d in
// [1, 12] dimensions around 1–5 class centres, with their classes. In
// every third dataset each point is a copy of one of 2–6 distinct rows,
// so at larger K the seeding's D² weights all vanish and it falls back to
// a uniform draw.
func pinnedData(r *rand.Rand, ds int) ([][]float64, []int) {
	n, d, k := 20+r.Intn(160), 1+r.Intn(12), 1+r.Intn(5)
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
		if distinct := 2 + ds%5; ds%3 == 2 && i >= distinct {
			src := r.Intn(distinct)
			x[i], y[i] = append([]float64(nil), x[src]...), y[src]
			continue
		}
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
		if a, b := r.Intn(n), r.Intn(n); a != b {
			s.Add(a, b, mustLink)
		}
	}
	return s
}

// pinnedConstraints returns the sweep's constraint sets for one dataset:
// none, derived from labels, must-link only, cannot-link only and a
// sampled pool. The label-derived and pool sets make K below the number
// of classes infeasible.
func pinnedConstraints(r *rand.Rand, y []int) []*constraints.Set {
	n := len(y)
	labeled := r.Perm(n)[:4+r.Intn(12)]
	return []*constraints.Set{
		nil,
		constraints.FromLabels(labeled, y),
		randomPairs(r, n, 5+r.Intn(30), true),
		randomPairs(r, n, 3+r.Intn(6), false),
		constraints.Sample(r, constraints.Pool(r, y, 0.1), 0.5),
	}
}

func hashInts(h hash.Hash, v ...int) {
	var buf [8]byte
	for _, i := range v {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(i)))
		h.Write(buf[:])
	}
}

func hashFloats(h hash.Hash, v ...float64) {
	var buf [8]byte
	for _, f := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
}

// TestCOPKMeansPinned pins COP-KMeans' output across commits: one digest
// over the bits of Labels, Centers, Objective and Iters of 1200 runs
// spanning dimensionality, coincident points, five constraint shapes, K
// from 1 to 9 and the iteration cap, with a marker for each run that
// fails as infeasible. Each run seeds its centres with k-means++, so the
// digest pins the seeding too. Skipped off amd64, where the compiler may
// fuse multiply-adds and change the last bits legitimately.
func TestCOPKMeansPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	h := sha256.New()
	runs, infeasible := 0, 0
	for ds := 0; ds < 12; ds++ {
		r := stats.NewRand(int64(2200 + ds))
		x, y := pinnedData(r, ds)
		for ci, cons := range pinnedConstraints(r, y) {
			for _, k := range []int{1, 2, 3, 5, 9} {
				for _, maxIter := range []int{0, 1, 4, 100} {
					cfg := Config{K: k, MaxIter: maxIter, Seed: int64(runs)}
					res, err := Run(x, cons, cfg)
					runs++
					if errors.Is(err, ErrInfeasible) {
						hashInts(h, -1)
						infeasible++
						continue
					}
					if err != nil {
						t.Fatalf("dataset %d constraints %d %+v: %v", ds, ci, cfg, err)
					}
					hashInts(h, res.Labels...)
					for _, c := range res.Centers {
						hashFloats(h, c...)
					}
					hashFloats(h, res.Objective)
					hashInts(h, res.Iters)
				}
			}
		}
	}
	if runs != 1200 || infeasible == 0 || infeasible == runs {
		t.Fatalf("swept %d runs with %d infeasible, want 1200 with some of each", runs, infeasible)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != copkPinnedDigest {
		t.Errorf("digest over %d runs (%d infeasible) = %s, pinned %s", runs, infeasible, got, copkPinnedDigest)
	}
}
