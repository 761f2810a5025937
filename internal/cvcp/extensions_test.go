package cvcp

import (
	"context"
	"testing"

	"cvcp/internal/constraints"
	"cvcp/internal/datagen"
	"cvcp/internal/stats"
)

func TestCOPKMeansUnderCVCP(t *testing.T) {
	ds := blobsDataset(21, 3, 20, 15)
	labeled := ds.SampleLabels(stats.NewRand(22), 0.25)
	sel := selectWinner(t, Spec{
		Dataset:     ds,
		Grid:        Grid{{Algorithm: COPKMeans{}, Params: []int{2, 3, 4, 5}}},
		Supervision: Labels(labeled),
		Options:     Options{Seed: 23},
	})
	if sel.Best.Param != 3 {
		t.Errorf("COP-KMeans selected k=%d, want 3 (scores %v)", sel.Best.Param, sel.ScoreCurve())
	}
}

// An infeasible parameter (fewer clusters than mutually cannot-linked
// groups) must score poorly rather than abort the sweep.
func TestCOPKMeansInfeasibleParamScoresLow(t *testing.T) {
	ds := blobsDataset(24, 4, 15, 15)
	labeled := ds.SampleLabels(stats.NewRand(25), 0.3)
	sel := selectWinner(t, Spec{
		Dataset:     ds,
		Grid:        Grid{{Algorithm: COPKMeans{}, Params: []int{2, 3, 4, 5, 6}}},
		Supervision: Labels(labeled),
		Options:     Options{Seed: 26},
	})
	// k=2 and k=3 cannot host 4 mutually cannot-linked classes; the
	// selection must avoid them.
	if sel.Best.Param < 4 {
		t.Errorf("selected infeasible k=%d (scores %v)", sel.Best.Param, sel.ScoreCurve())
	}
}

func TestSelectAlgorithmWithLabels(t *testing.T) {
	// Zyeast-like elongated classes: the density-based candidate should
	// win the cross-paradigm selection.
	ds := datagen.Zyeast(31)
	labeled := ds.SampleLabels(stats.NewRand(32), 0.2)
	spec := Spec{
		Dataset: ds,
		Grid: Grid{
			{Algorithm: FOSCOpticsDend{}, Params: []int{3, 6, 9, 12}},
			{Algorithm: MPCKMeans{}, Params: []int{2, 3, 4, 5, 6}},
		},
		Supervision: Labels(labeled),
		Options:     Options{Seed: 33},
	}
	res, err := Select(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCandidate) != 2 || res.Winner == nil {
		t.Fatalf("incomplete result: %+v", res)
	}
	for _, sel := range res.PerCandidate {
		if sel.Best.Score > res.Winner.Best.Score {
			t.Error("winner is not the best-scoring candidate")
		}
	}
	spec.Grid = nil
	if _, err := Select(context.Background(), spec); err == nil {
		t.Error("expected error for empty candidate list")
	}
}

func TestSelectAlgorithmWithConstraints(t *testing.T) {
	ds := blobsDataset(41, 3, 20, 15)
	r := stats.NewRand(42)
	cons := constraints.Sample(r, constraints.Pool(r, ds.Y, 0.25), 0.6)
	winner := selectWinner(t, Spec{
		Dataset: ds,
		Grid: Grid{
			{Algorithm: MPCKMeans{}, Params: []int{2, 3, 4, 5}},
			{Algorithm: COPKMeans{}, Params: []int{2, 3, 4, 5}},
		},
		Supervision: ConstraintSet(cons),
		Options:     Options{Seed: 43},
	})
	if winner.Best.Score < 0.8 {
		t.Errorf("winner score %v on easy blobs", winner.Best.Score)
	}
}

func TestBootstrapWithLabels(t *testing.T) {
	ds := blobsDataset(51, 3, 20, 15)
	labeled := ds.SampleLabels(stats.NewRand(52), 0.25)
	spec := Spec{
		Dataset:     ds,
		Grid:        Grid{{Algorithm: MPCKMeans{}, Params: []int{2, 3, 4, 5}}},
		Supervision: Labels(labeled),
		Scorer:      Bootstrap{Rounds: 8},
		Options:     Options{Seed: 53},
	}
	sel := selectWinner(t, spec)
	if sel.Best.Param != 3 {
		t.Errorf("bootstrap selected k=%d, want 3 (scores %v)", sel.Best.Param, sel.ScoreCurve())
	}
	if len(sel.Best.FoldScores) != 8 {
		t.Errorf("got %d bootstrap rounds, want 8", len(sel.Best.FoldScores))
	}
	spec.Supervision = Labels(labeled[:2])
	if _, err := Select(context.Background(), spec); err == nil {
		t.Error("expected error for too few labeled objects")
	}
}

func TestSelectByValidityIndex(t *testing.T) {
	ds := blobsDataset(71, 3, 20, 15)
	spec := Spec{
		Dataset:     ds,
		Grid:        Grid{{Algorithm: MPCKMeans{}, Params: []int{2, 3, 4, 5}}},
		Supervision: ConstraintSet(nil),
		Options:     Options{Seed: 72},
	}
	for _, vi := range ValidityIndices() {
		spec.Scorer = Validity{Index: vi}
		res, err := Select(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: %v", vi.Name, err)
		}
		if res.Winner.Best.Param != 3 {
			t.Errorf("%s selected k=%d on 3 clean blobs, want 3", vi.Name, res.Winner.Best.Param)
		}
	}
	spec.Scorer = Validity{Index: ValidityIndex{Name: "broken"}}
	if _, err := Select(context.Background(), spec); err == nil {
		t.Error("expected error for incomplete validity index")
	}
}

func TestBootstrapDeterministic(t *testing.T) {
	ds := blobsDataset(61, 3, 15, 12)
	labeled := ds.SampleLabels(stats.NewRand(62), 0.3)
	spec := Spec{
		Dataset:     ds,
		Grid:        Grid{{Algorithm: MPCKMeans{}, Params: []int{2, 3, 4}}},
		Supervision: Labels(labeled),
		Scorer:      Bootstrap{Rounds: 5},
		Options:     Options{Seed: 63},
	}
	a, b := selectWinner(t, spec), selectWinner(t, spec)
	if a.Best.Param != b.Best.Param || a.Best.Score != b.Best.Score {
		t.Error("bootstrap not deterministic")
	}
}
