package cvcp

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"cvcp/internal/constraints"
	"cvcp/internal/dataset"
	"cvcp/internal/stats"
)

// selectMPCKPinnedDigest is the SHA-256 of TestSelectMPCKPinned's fold
// scores, best k and final labels, recorded before MPCK-Means' per-cluster
// metric terms were hoisted out of the E-step.
const selectMPCKPinnedDigest = "38f835a5cd0cb5df1e10ba544bdfdb37b16bd2e91a50dedd26fb06f2c38125d8"

// TestSelectMPCKPinned pins one Scenario II selection over MPCKMeans
// across commits: five overlapping Gaussian classes in 12 dimensions, a
// sampled constraint pool, k = 2..7 over 5 folds at Workers 2. Among the
// seeds tried, this one's digest also moves when the E-step's must-link
// weight or the M-step's cannot-link term changes by 10%. The worker-count goldens compare two
// runs of one build; this digest also catches a change that moves every
// run alike. Skipped off amd64, where the compiler may fuse multiply-adds.
func TestSelectMPCKPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	r := stats.NewRand(25)
	const n, d, k = 300, 12, 5
	centres := make([][]float64, k)
	for c := range centres {
		centres[c] = make([]float64, d)
		for j := range centres[c] {
			centres[c][j] = 0.8 * r.NormFloat64()
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
	ds := dataset.MustNew("pinned-mpck", x, y)
	cons := constraints.Sample(r, constraints.Pool(r, y, 0.25), 0.5)
	res, err := Select(context.Background(), Spec{
		Dataset:     ds,
		Grid:        Grid{{Algorithm: MPCKMeans{}, Params: KRange(2, 7)}},
		Supervision: ConstraintSet(cons),
		Options:     Options{NFolds: 5, Seed: 16, Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	sel := res.Winner
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, ps := range sel.Scores {
		put(uint64(ps.Param))
		for _, f := range ps.FoldScores {
			put(math.Float64bits(f))
		}
	}
	put(uint64(sel.Best.Param))
	for _, l := range sel.FinalLabels {
		put(uint64(int64(l)))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != selectMPCKPinnedDigest {
		t.Errorf("digest = %s (best k %d, scores %v), pinned %s", got, sel.Best.Param, sel.ScoreCurve(), selectMPCKPinnedDigest)
	}
}

// selectFOSCPinnedDigest is the SHA-256 of TestSelectFOSCPinned's fold
// scores, best MinPts and final labels, recorded on the indexed-heap dense
// OPTICS driver.
const selectFOSCPinnedDigest = "938d7c7fefa9376dec49d3173f76327bf2914f9cf1093c674b51cb563250acdc"

// TestSelectFOSCPinned pins one Scenario I selection over FOSCOpticsDend
// across commits: four classes in 4 dimensions with integer-rounded
// coordinates, so many objects coincide and OPTICS' reachabilities tie
// exactly, leaving the order to its index tie-break; 20% of the objects
// labelled, MinPts 3..18 over 5 folds at Workers 2. Skipped off amd64,
// like TestSelectMPCKPinned.
func TestSelectFOSCPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	r := stats.NewRand(31)
	const n, d, k = 240, 4, 4
	centres := make([][]float64, k)
	for c := range centres {
		centres[c] = make([]float64, d)
		for j := range centres[c] {
			centres[c][j] = math.Round(1.5 * r.NormFloat64())
		}
	}
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		y[i] = r.Intn(k)
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = centres[y[i]][j] + math.Round(1.2*r.NormFloat64())
		}
	}
	ds := dataset.MustNew("pinned-fosc", x, y)
	res, err := Select(context.Background(), Spec{
		Dataset:     ds,
		Grid:        Grid{{Algorithm: FOSCOpticsDend{}, Params: []int{3, 4, 6, 9, 12, 18}}},
		Supervision: Labels(ds.SampleLabels(r, 0.2)),
		Options:     Options{NFolds: 5, Seed: 17, Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	sel := res.Winner
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, ps := range sel.Scores {
		put(uint64(ps.Param))
		for _, f := range ps.FoldScores {
			put(math.Float64bits(f))
		}
	}
	put(uint64(sel.Best.Param))
	for _, l := range sel.FinalLabels {
		put(uint64(int64(l)))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != selectFOSCPinnedDigest {
		t.Errorf("digest = %s (best MinPts %d, scores %v), pinned %s", got, sel.Best.Param, sel.ScoreCurve(), selectFOSCPinnedDigest)
	}
}
