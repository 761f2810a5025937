package cvcp

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"cvcp/internal/constraints"
	"cvcp/internal/stats"
)

// Selection pins for the paths TestSelectMPCKPinned and
// TestSelectFOSCPinned do not reach: cross-validation of MPCK-Means on
// labels and of FOSC-OPTICSDend on constraints, the Bootstrap scorer,
// Validity under each index, and multi-candidate grids on both kinds of
// supervision. Each case runs at Workers 1 and 8, and both runs must hash
// to a digest recorded across commits, so a change that moves every run
// alike fails as well as one that breaks determinism. Skipped off amd64,
// like the other selection pins.

// equivalenceWorkers are the worker counts every pinned case runs at.
var equivalenceWorkers = []int{1, 8}

const (
	selectWithLabelsPinnedDigest      = "a21a13ccfbfe8dc1bda84866f7cf43500bacab115884ea654044a4811d629ad3"
	selectWithConstraintsPinnedDigest = "972e9a395d1f1a10fba62a413602ce0021f7133b435b288f9cba4bbbc4dbd03e"
	bootstrapWithLabelsPinnedDigest   = "84bb8695b9552fc8b1b077fee5778d13bc01ff9de844cf9c0ca807d55f0b3e63"
	selectBySilhouettePinnedDigest    = "d3781e7d76264bf369b95a2197f3d0df1954e65626fba1e72169e32360c06a96"
	algorithmLabelsPinnedDigest       = "32f15ad3acedc9496c4c37f9984719af558a684737fd0a784bf93cdfdaaac5ad"
	algorithmConstraintsPinnedDigest  = "dcbed5d0b615ddde48a4a864ede4878c38480566c1b596aab464acbf8bf271fd"
)

// validityPinnedDigests holds TestSelectByValidityIndexEquivalence's
// digest per index name.
var validityPinnedDigests = map[string]string{
	"silhouette":        "08c50d65c0b6f005fe6c8de4c8be81054705f70509a18d1dc4c72f12b7ccdf1b",
	"davies-bouldin":    "61b243953da4ee9c42944a8aed959bdcf11d549b509b0658187e0b4a7bc23da6",
	"calinski-harabasz": "21abea4695846ae34e3edfd30ebf3d1b60ded3722b71f193410c27a4fb257bd4",
	"dunn":              "7a35a7609ca3feac83c7322aec3b2561af5c1330e8fb70ae8a0d43716435be63",
}

// requirePinnedArch skips a digest test off amd64, where the compiler may
// fuse multiply-adds and move the low bits of a score.
func requirePinnedArch(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
}

// resultDigest hashes a selection result with TestSelectMPCKPinned's
// encoding — per candidate, every parameter with its fold-score bits, the
// best parameter and the final labels — plus each parameter's mean-score
// bits (a Validity score has no fold scores) and the winner's position.
func resultDigest(res *Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for ci, sel := range res.PerCandidate {
		for _, ps := range sel.Scores {
			put(uint64(ps.Param))
			put(math.Float64bits(ps.Score))
			for _, f := range ps.FoldScores {
				put(math.Float64bits(f))
			}
		}
		put(uint64(sel.Best.Param))
		for _, l := range sel.FinalLabels {
			put(uint64(int64(l)))
		}
		if sel == res.Winner {
			put(uint64(ci))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkPinned reports a result whose digest differs from the pinned one.
func checkPinned(t *testing.T, what string, res *Result, want string) {
	t.Helper()
	if got := resultDigest(res); got != want {
		t.Errorf("%s: digest = %s (winner %s, best %d, scores %v), pinned %s",
			what, got, res.Winner.Algorithm, res.Winner.Best.Param, res.Winner.ScoreCurve(), want)
	}
}

func TestSelectWithLabelsEquivalence(t *testing.T) {
	requirePinnedArch(t)
	ds := blobsDataset(81, 3, 20, 15)
	labeled := ds.SampleLabels(stats.NewRand(82), 0.3)
	params := []int{2, 3, 4, 5}
	for _, w := range equivalenceWorkers {
		opt := Options{Seed: 83, NFolds: 4, Workers: w}
		res, err := Select(context.Background(), Spec{
			Dataset:     ds,
			Grid:        Grid{{Algorithm: MPCKMeans{}, Params: params}},
			Supervision: Labels(labeled),
			Scorer:      CrossValidation{},
			Options:     opt,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkPinned(t, fmt.Sprintf("workers %d", w), res, selectWithLabelsPinnedDigest)
	}
}

func TestSelectWithConstraintsEquivalence(t *testing.T) {
	requirePinnedArch(t)
	ds := blobsDataset(84, 4, 15, 4)
	r := stats.NewRand(85)
	cons := constraints.Sample(r, constraints.Pool(r, ds.Y, 0.3), 0.5)
	params := []int{3, 6, 9}
	for _, w := range equivalenceWorkers {
		opt := Options{Seed: 86, NFolds: 4, Workers: w}
		res, err := Select(context.Background(), Spec{
			Dataset:     ds,
			Grid:        Grid{{Algorithm: FOSCOpticsDend{}, Params: params}},
			Supervision: ConstraintSet(cons),
			Options:     opt, // nil Scorer defaults to CrossValidation
		})
		if err != nil {
			t.Fatal(err)
		}
		checkPinned(t, fmt.Sprintf("workers %d", w), res, selectWithConstraintsPinnedDigest)
	}
}

func TestBootstrapWithLabelsEquivalence(t *testing.T) {
	requirePinnedArch(t)
	ds := blobsDataset(87, 3, 18, 14)
	labeled := ds.SampleLabels(stats.NewRand(88), 0.3)
	params := []int{2, 3, 4}
	for _, w := range equivalenceWorkers {
		opt := Options{Seed: 89, Workers: w}
		res, err := Select(context.Background(), Spec{
			Dataset:     ds,
			Grid:        Grid{{Algorithm: MPCKMeans{}, Params: params}},
			Supervision: Labels(labeled),
			Scorer:      Bootstrap{Rounds: 6},
			Options:     opt,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkPinned(t, fmt.Sprintf("workers %d", w), res, bootstrapWithLabelsPinnedDigest)
	}
}

func TestSelectByValidityIndexEquivalence(t *testing.T) {
	requirePinnedArch(t)
	ds := blobsDataset(90, 3, 20, 15)
	params := []int{2, 3, 4, 5}
	for _, vi := range ValidityIndices() {
		want := validityPinnedDigests[vi.Name]
		for _, w := range equivalenceWorkers {
			opt := Options{Seed: 91, Workers: w}
			res, err := Select(context.Background(), Spec{
				Dataset:     ds,
				Grid:        Grid{{Algorithm: MPCKMeans{}, Params: params}},
				Supervision: ConstraintSet(nil),
				Scorer:      Validity{Index: vi},
				Options:     opt,
			})
			if err != nil {
				t.Fatal(err)
			}
			checkPinned(t, fmt.Sprintf("%s, workers %d", vi.Name, w), res, want)
		}
	}
}

func TestSelectBySilhouetteEquivalence(t *testing.T) {
	requirePinnedArch(t)
	ds := blobsDataset(92, 3, 20, 15)
	labeled := ds.SampleLabels(stats.NewRand(93), 0.3)
	full := constraints.FromLabels(labeled, ds.Y)
	params := []int{2, 3, 4, 5}
	for _, w := range equivalenceWorkers {
		opt := Options{Seed: 94, Workers: w}
		res, err := Select(context.Background(), Spec{
			Dataset:     ds,
			Grid:        Grid{{Algorithm: MPCKMeans{}, Params: params}},
			Supervision: ConstraintSet(full),
			Scorer:      Validity{Index: silhouetteIndex()},
			Options:     opt,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkPinned(t, fmt.Sprintf("workers %d", w), res, selectBySilhouettePinnedDigest)
	}
}

func TestSelectAlgorithmWithLabelsEquivalence(t *testing.T) {
	requirePinnedArch(t)
	ds := blobsDataset(95, 3, 20, 15)
	labeled := ds.SampleLabels(stats.NewRand(96), 0.3)
	cands := []Candidate{
		{Algorithm: FOSCOpticsDend{}, Params: []int{3, 6, 9}},
		{Algorithm: MPCKMeans{}, Params: []int{2, 3, 4}},
		{Algorithm: COPKMeans{}, Params: []int{2, 3, 4}},
	}
	for _, w := range equivalenceWorkers {
		opt := Options{Seed: 97, NFolds: 4, Workers: w}
		res, err := Select(context.Background(), Spec{
			Dataset:     ds,
			Grid:        Grid(cands),
			Supervision: Labels(labeled),
			Options:     opt,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkPinned(t, fmt.Sprintf("workers %d", w), res, algorithmLabelsPinnedDigest)
	}
}

func TestSelectAlgorithmWithConstraintsEquivalence(t *testing.T) {
	requirePinnedArch(t)
	ds := blobsDataset(98, 3, 20, 15)
	r := stats.NewRand(99)
	cons := constraints.Sample(r, constraints.Pool(r, ds.Y, 0.25), 0.6)
	cands := []Candidate{
		{Algorithm: MPCKMeans{}, Params: []int{2, 3, 4}},
		{Algorithm: COPKMeans{}, Params: []int{2, 3, 4}},
	}
	for _, w := range equivalenceWorkers {
		opt := Options{Seed: 100, NFolds: 4, Workers: w}
		res, err := Select(context.Background(), Spec{
			Dataset:     ds,
			Grid:        Grid(cands),
			Supervision: ConstraintSet(cons),
			Options:     opt,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkPinned(t, fmt.Sprintf("workers %d", w), res, algorithmConstraintsPinnedDigest)
	}
}

// The unified grid must be invariant to running candidates together or
// alone: a multi-candidate Select is bit-identical to one Select per
// candidate (the property that lets the engine share one worker pool, one
// Limiter and one run cache across a cross-method selection).
func TestMultiCandidateMatchesPerCandidate(t *testing.T) {
	ds := blobsDataset(101, 3, 18, 14)
	labeled := ds.SampleLabels(stats.NewRand(102), 0.3)
	cands := Grid{
		{Algorithm: FOSCOpticsDend{}, Params: []int{3, 6, 9}},
		{Algorithm: MPCKMeans{}, Params: []int{2, 3, 4, 5}},
	}
	opt := Options{Seed: 103, NFolds: 3, Workers: 8}
	joint, err := Select(context.Background(), Spec{Dataset: ds, Grid: cands, Supervision: Labels(labeled), Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	for i, cand := range cands {
		alone, err := Select(context.Background(), Spec{Dataset: ds, Grid: Grid{cand}, Supervision: Labels(labeled), Options: opt})
		if err != nil {
			t.Fatal(err)
		}
		equalSelection(t, alone.PerCandidate[0], joint.PerCandidate[i], "joint vs alone "+cand.Algorithm.Name())
	}
}
