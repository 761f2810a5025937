package cvcp

import (
	"context"
	"fmt"
	"testing"

	"cvcp/internal/constraints"
	"cvcp/internal/dataset"
	"cvcp/internal/stats"
)

// blobsDataset builds k well-separated 2-d blobs of size m.
func blobsDataset(seed int64, k, m int, gap float64) *dataset.Dataset {
	r := stats.NewRand(seed)
	var x [][]float64
	var y []int
	for c := 0; c < k; c++ {
		cx := gap * float64(c%3)
		cy := gap * float64(c/3)
		for i := 0; i < m; i++ {
			x = append(x, []float64{cx + r.NormFloat64(), cy + r.NormFloat64()})
			y = append(y, c)
		}
	}
	ds := dataset.MustNew(fmt.Sprintf("blobs-%d", k), x, y)
	return ds
}

// selectWinner runs spec through Select and returns the winning selection.
func selectWinner(t *testing.T, spec Spec) *Selection {
	t.Helper()
	res, err := Select(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return res.Winner
}

func allIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func TestSelectWithLabelsRecoversK(t *testing.T) {
	ds := blobsDataset(1, 3, 20, 15)
	r := stats.NewRand(2)
	labeled := ds.SampleLabels(r, 0.25)
	sel := selectWinner(t, Spec{
		Dataset:     ds,
		Grid:        Grid{{Algorithm: MPCKMeans{}, Params: []int{2, 3, 4, 5, 6}}},
		Supervision: Labels(labeled),
		Options:     Options{Seed: 3},
	})
	if sel.Best.Param != 3 {
		t.Errorf("selected k=%d, want 3 (scores %v)", sel.Best.Param, sel.ScoreCurve())
	}
	if len(sel.FinalLabels) != ds.N() {
		t.Errorf("final labels length %d", len(sel.FinalLabels))
	}
}

func TestSelectWithConstraintsRecoversK(t *testing.T) {
	ds := blobsDataset(4, 4, 15, 15)
	r := stats.NewRand(5)
	pool := constraints.Pool(r, ds.Y, 0.3)
	cons := constraints.Sample(r, pool, 0.5)
	sel := selectWinner(t, Spec{
		Dataset:     ds,
		Grid:        Grid{{Algorithm: MPCKMeans{}, Params: []int{2, 3, 4, 5, 6}}},
		Supervision: ConstraintSet(cons),
		Options:     Options{Seed: 6},
	})
	if sel.Best.Param != 4 {
		t.Errorf("selected k=%d, want 4 (scores %v)", sel.Best.Param, sel.ScoreCurve())
	}
}

func TestSelectFOSCWithLabels(t *testing.T) {
	ds := blobsDataset(7, 3, 25, 18)
	r := stats.NewRand(8)
	labeled := ds.SampleLabels(r, 0.2)
	sel := selectWinner(t, Spec{
		Dataset:     ds,
		Grid:        Grid{{Algorithm: FOSCOpticsDend{}, Params: []int{3, 6, 9, 12}}},
		Supervision: Labels(labeled),
		Options:     Options{Seed: 9},
	})
	if sel.Best.Score < 0.8 {
		t.Errorf("best FOSC score %v on easy blobs", sel.Best.Score)
	}
}

func TestSelectErrors(t *testing.T) {
	ds := blobsDataset(1, 2, 10, 10)
	idx := allIdx(ds.N())
	run := func(alg Algorithm, ds *dataset.Dataset, params []int, sup Supervision) error {
		_, err := Select(context.Background(), Spec{Dataset: ds, Grid: Grid{{Algorithm: alg, Params: params}}, Supervision: sup})
		return err
	}
	if run(nil, ds, []int{2}, Labels(idx)) == nil {
		t.Error("nil algorithm")
	}
	if run(MPCKMeans{}, nil, []int{2}, Labels(idx)) == nil {
		t.Error("nil dataset")
	}
	if run(MPCKMeans{}, ds, nil, Labels(idx)) == nil {
		t.Error("empty parameter range")
	}
	if run(MPCKMeans{}, ds, []int{2}, Labels(idx[:2])) == nil {
		t.Error("too few labeled objects")
	}
	unlabeled := dataset.MustNew("u", ds.X, nil)
	if run(MPCKMeans{}, unlabeled, []int{2}, Labels(idx)) == nil {
		t.Error("unlabeled dataset in Scenario I")
	}
	if run(MPCKMeans{}, ds, []int{2}, ConstraintSet(constraints.NewSet())) == nil {
		t.Error("empty constraint set in Scenario II")
	}
	bad := constraints.NewSet()
	bad.Add(0, 1, true)
	bad.Add(0, 1, false)
	if run(MPCKMeans{}, ds, []int{2}, ConstraintSet(bad)) == nil {
		t.Error("inconsistent constraints")
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	ds := blobsDataset(10, 3, 15, 12)
	r := stats.NewRand(11)
	labeled := ds.SampleLabels(r, 0.3)
	params := []int{2, 3, 4, 5}
	spec := Spec{
		Dataset:     ds,
		Grid:        Grid{{Algorithm: MPCKMeans{}, Params: params}},
		Supervision: Labels(labeled),
		Options:     Options{Seed: 12},
	}
	serial := selectWinner(t, spec)
	spec.Options.Workers = -1
	parallel := selectWinner(t, spec)
	for i := range serial.Scores {
		if serial.Scores[i].Score != parallel.Scores[i].Score {
			t.Errorf("param %d: serial %v, parallel %v",
				params[i], serial.Scores[i].Score, parallel.Scores[i].Score)
		}
	}
	if serial.Best.Param != parallel.Best.Param {
		t.Error("parallel selection differs")
	}
}

func TestDeterministicForSeed(t *testing.T) {
	ds := blobsDataset(13, 3, 15, 12)
	labeled := ds.SampleLabels(stats.NewRand(14), 0.3)
	spec := Spec{
		Dataset:     ds,
		Grid:        Grid{{Algorithm: MPCKMeans{}, Params: []int{2, 3, 4}}},
		Supervision: Labels(labeled),
		Options:     Options{Seed: 15},
	}
	a, b := selectWinner(t, spec), selectWinner(t, spec)
	if a.Best.Param != b.Best.Param || a.Best.Score != b.Best.Score {
		t.Error("selection not deterministic")
	}
}

func TestSelectBySilhouette(t *testing.T) {
	ds := blobsDataset(16, 3, 20, 15)
	sel := selectWinner(t, Spec{
		Dataset:     ds,
		Grid:        Grid{{Algorithm: MPCKMeans{}, Params: []int{2, 3, 4, 5}}},
		Supervision: ConstraintSet(nil),
		Scorer:      Validity{Index: silhouetteIndex()},
		Options:     Options{Seed: 17},
	})
	if sel.Best.Param != 3 {
		t.Errorf("silhouette selected k=%d on 3 clean blobs, want 3", sel.Best.Param)
	}
}

func TestSortScores(t *testing.T) {
	in := []ParamScore{{Param: 3, Score: 0.5}, {Param: 2, Score: 0.9}, {Param: 5, Score: 0.9}}
	out := SortScores(in)
	if out[0].Param != 2 || out[1].Param != 5 || out[2].Param != 3 {
		t.Errorf("SortScores = %v", out)
	}
	if in[0].Param != 3 {
		t.Error("SortScores mutated input")
	}
}

// Scenario II on label-derived constraints should behave like Scenario I:
// both must select the planted parameter on easy data.
func TestScenarioIIReducesToScenarioI(t *testing.T) {
	ds := blobsDataset(18, 3, 20, 15)
	labeled := ds.SampleLabels(stats.NewRand(19), 0.25)
	cons := constraints.FromLabels(labeled, ds.Y)
	spec := Spec{
		Dataset:     ds,
		Grid:        Grid{{Algorithm: MPCKMeans{}, Params: []int{2, 3, 4, 5}}},
		Supervision: Labels(labeled),
		Options:     Options{Seed: 20},
	}
	s1 := selectWinner(t, spec)
	spec.Supervision = ConstraintSet(cons)
	s2 := selectWinner(t, spec)
	if s1.Best.Param != 3 || s2.Best.Param != 3 {
		t.Errorf("scenario I selected %d, scenario II selected %d, want 3",
			s1.Best.Param, s2.Best.Param)
	}
}

func TestFOSCOpticsDendNoiseLabels(t *testing.T) {
	// A far-away pair smaller than MinClusterSize must come out as noise
	// (-1), demonstrating the density-based noise semantics end to end.
	x := [][]float64{{0}, {1}, {2}, {3}, {4}, {100}, {101}}
	y := []int{0, 0, 0, 0, 0, 1, 1}
	ds := dataset.MustNew("noise", x, y)
	cons := constraints.FromLabels([]int{0, 1, 2}, y)
	labels, err := FOSCOpticsDend{MinClusterSize: 3}.Cluster(ds, cons, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if labels[5] != -1 || labels[6] != -1 {
		t.Errorf("far pair should be noise: %v", labels)
	}
}
