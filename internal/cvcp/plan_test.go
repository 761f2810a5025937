package cvcp

import (
	"context"
	"slices"
	"strings"
	"sync"
	"testing"

	"cvcp/internal/constraints"
	"cvcp/internal/dataset"
	"cvcp/internal/stats"
)

// TestCellPlanMatchesSelect is the distributed-determinism contract at the
// planning layer: for several shardings of the cell grid — including
// out-of-order range execution and differing per-range worker counts —
// computing each range with ScoreRange and merging the concatenated scores
// with Finalize must reproduce Select's Result bit-for-bit.
func TestCellPlanMatchesSelect(t *testing.T) {
	ds := blobsDataset(41, 3, 20, 15)
	labeled := ds.SampleLabels(stats.NewRand(42), 0.3)
	spec := Spec{
		Dataset: ds,
		Grid: Grid{
			{Algorithm: FOSCOpticsDend{}, Params: []int{3, 6, 9}},
			{Algorithm: MPCKMeans{}, Params: []int{2, 3, 4}},
		},
		Supervision: Labels(labeled),
		Options:     Options{Seed: 43, Workers: 2},
	}
	want, err := Select(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	plan, err := PlanCells(spec)
	if err != nil {
		t.Fatal(err)
	}
	n := plan.NumCells()
	if folds := 0; true {
		for _, ps := range want.PerCandidate[0].Scores {
			folds = len(ps.FoldScores)
			break
		}
		if wantCells := 6 * folds; n != wantCells {
			t.Fatalf("NumCells() = %d, want %d", n, wantCells)
		}
	}

	for _, per := range []int{1, 4, n, n + 7} {
		var ranges [][2]int
		for lo := 0; lo < n; lo += per {
			hi := lo + per
			if hi > n {
				hi = n
			}
			ranges = append(ranges, [2]int{lo, hi})
		}
		// Execute the ranges back-to-front with varying worker counts:
		// neither order nor local parallelism may leak into the scores.
		cellScores := make([]float64, n)
		for i := len(ranges) - 1; i >= 0; i-- {
			lo, hi := ranges[i][0], ranges[i][1]
			part, err := plan.ScoreRange(context.Background(), lo, hi, 1+i%3, nil)
			if err != nil {
				t.Fatalf("ScoreRange(%d, %d): %v", lo, hi, err)
			}
			if len(part) != hi-lo {
				t.Fatalf("ScoreRange(%d, %d) returned %d scores", lo, hi, len(part))
			}
			copy(cellScores[lo:hi], part)
		}
		got, err := plan.Finalize(context.Background(), cellScores, 2, nil)
		if err != nil {
			t.Fatalf("Finalize (per=%d): %v", per, err)
		}
		if len(got.PerCandidate) != len(want.PerCandidate) {
			t.Fatalf("per=%d: %d candidates, want %d", per, len(got.PerCandidate), len(want.PerCandidate))
		}
		for ci := range want.PerCandidate {
			equalSelection(t, want.PerCandidate[ci], got.PerCandidate[ci], "sharded vs Select")
		}
		equalSelection(t, want.Winner, got.Winner, "winner")
	}
}

func TestPlanCellsRejectsValidityScorer(t *testing.T) {
	ds := blobsDataset(44, 3, 15, 12)
	labeled := ds.SampleLabels(stats.NewRand(45), 0.3)
	spec := Spec{
		Dataset:     ds,
		Grid:        Grid{{Algorithm: MPCKMeans{}, Params: []int{2, 3}}},
		Supervision: Labels(labeled),
		Scorer:      Validity{Index: silhouetteIndex()},
	}
	if _, err := PlanCells(spec); err == nil || !strings.Contains(err.Error(), "not partition-based") {
		t.Fatalf("PlanCells with validity scorer: err = %v, want not-partition-based", err)
	}
}

func TestCellPlanRangeAndMergeErrors(t *testing.T) {
	ds := blobsDataset(46, 3, 15, 12)
	labeled := ds.SampleLabels(stats.NewRand(47), 0.3)
	plan, err := PlanCells(Spec{
		Dataset:     ds,
		Grid:        Grid{{Algorithm: MPCKMeans{}, Params: []int{2, 3}}},
		Supervision: Labels(labeled),
		Options:     Options{Seed: 48},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := plan.NumCells()
	for _, r := range [][2]int{{-1, 1}, {0, n + 1}, {2, 1}} {
		if _, err := plan.ScoreRange(context.Background(), r[0], r[1], 1, nil); err == nil {
			t.Errorf("ScoreRange(%d, %d) accepted an invalid range", r[0], r[1])
		}
	}
	if _, err := plan.Finalize(context.Background(), make([]float64, n-1), 1, nil); err == nil {
		t.Error("Finalize accepted a short score vector")
	}
}

// cellLog records which grid cell every Cluster call of its
// recordingAlgorithms computes, in call order.
type cellLog struct {
	mu    sync.Mutex
	cells []int
	// cell maps (candidate, parameter, seed) to the cell index.
	cell map[[3]int64]int
}

// recordingAlgorithm is candidate ci of a grid whose cells log to a
// cellLog; it puts every object in one cluster.
type recordingAlgorithm struct {
	ci  int
	log *cellLog
}

func (a recordingAlgorithm) Name() string { return "recording" }

func (a recordingAlgorithm) Cluster(ds *dataset.Dataset, _ *constraints.Set, param int, seed int64) ([]int, error) {
	a.log.mu.Lock()
	defer a.log.mu.Unlock()
	if c, ok := a.log.cell[[3]int64{int64(a.ci), int64(param), seed}]; ok {
		a.log.cells = append(a.log.cells, c)
	} else {
		a.log.cells = append(a.log.cells, -1) // a refit, not a grid cell
	}
	return make([]int, ds.N()), nil
}

// At Workers=1 the engine computes cells in the order it claims them:
// candidate-major, then fold-major within a candidate — fold 0 of every
// parameter column before fold 1 of any — for the whole grid and for a
// shard whose range starts in the middle of a column. Scores still land
// in cell order.
func TestCellsClaimedFoldMajor(t *testing.T) {
	ds := blobsDataset(51, 3, 15, 12)
	labeled := ds.SampleLabels(stats.NewRand(52), 0.3)
	log := &cellLog{cell: map[[3]int64]int{}}
	const nFolds, seed = 3, 53
	grid := Grid{
		{Algorithm: recordingAlgorithm{ci: 0, log: log}, Params: []int{3, 6, 9}},
		{Algorithm: recordingAlgorithm{ci: 1, log: log}, Params: []int{2, 4}},
	}
	c := 0
	for ci, cand := range grid {
		for pi, p := range cand.Params {
			for fi := 0; fi < nFolds; fi++ {
				log.cell[[3]int64{int64(ci), int64(p), stats.SplitSeed(seed, pi*nFolds+fi+1)}] = c
				c++
			}
		}
	}
	spec := Spec{
		Dataset:     ds,
		Grid:        grid,
		Supervision: Labels(labeled),
		Options:     Options{NFolds: nFolds, Seed: seed, Workers: 1},
	}
	taken := func() []int {
		log.mu.Lock()
		defer log.mu.Unlock()
		out := log.cells
		log.cells = nil
		return out
	}

	// Cells 0–8 are candidate 0 (parameter-major, three folds each),
	// cells 9–14 candidate 1.
	wholeGrid := []int{0, 3, 6, 1, 4, 7, 2, 5, 8, 9, 12, 10, 13, 11, 14}
	if _, err := Select(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if got := taken(); !slices.Equal(got, append(slices.Clone(wholeGrid), -1, -1)) {
		t.Errorf("Select computed cells %v, want %v and two refits", got, wholeGrid)
	}

	plan, err := PlanCells(spec)
	if err != nil {
		t.Fatal(err)
	}
	all, err := plan.ScoreRange(context.Background(), 0, plan.NumCells(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := taken(); !slices.Equal(got, wholeGrid) {
		t.Errorf("ScoreRange(0, %d) computed cells %v, want %v", plan.NumCells(), got, wholeGrid)
	}

	// [4, 11) starts at fold 1 of candidate 0's second column and ends
	// at fold 1 of candidate 1's first.
	shard, err := plan.ScoreRange(context.Background(), 4, 11, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := taken(), []int{6, 4, 7, 5, 8, 9, 10}; !slices.Equal(got, want) {
		t.Errorf("ScoreRange(4, 11) computed cells %v, want %v", got, want)
	}
	if !slices.Equal(shard, all[4:11]) {
		t.Errorf("ScoreRange(4, 11) = %v, want the whole grid's cells 4–10 %v", shard, all[4:11])
	}
}
