package eval

import (
	"math"
	"testing"
	"testing/quick"

	"cvcp/internal/constraints"
)

func TestSameCluster(t *testing.T) {
	labels := []int{0, 0, 1, -1, -1}
	if !SameCluster(labels, 0, 1) {
		t.Error("0,1 share cluster 0")
	}
	if SameCluster(labels, 0, 2) {
		t.Error("0,2 differ")
	}
	if SameCluster(labels, 3, 4) {
		t.Error("two noise objects never share a cluster")
	}
	if SameCluster(labels, 0, 3) {
		t.Error("noise never shares a cluster")
	}
}

func TestConfusion(t *testing.T) {
	labels := []int{0, 0, 1, 1}
	cons := constraints.NewSet()
	cons.Add(0, 1, true)  // satisfied ML
	cons.Add(0, 2, true)  // violated ML
	cons.Add(0, 3, false) // satisfied CL
	cons.Add(2, 3, false) // violated CL
	c := Confusion(labels, cons)
	if c.TPSame != 1 || c.FNSame != 1 || c.TPSplit != 1 || c.FNSplit != 1 {
		t.Errorf("confusion = %+v", c)
	}
}

func TestConstraintFHandComputed(t *testing.T) {
	labels := []int{0, 0, 1, 1}
	cons := constraints.NewSet()
	cons.Add(0, 1, true)
	cons.Add(0, 2, true)
	cons.Add(0, 3, false)
	cons.Add(2, 3, false)
	// Class "same": TP=1, FP=1 (CL 2-3 predicted same), FN=1 -> F = 2/(2+1+1) = 0.5
	// Class "split": TP=1, FP=1 (ML 0-2 predicted split), FN=1 -> F = 0.5
	if got := ConstraintF(labels, cons); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("ConstraintF = %v, want 0.5", got)
	}
}

func TestConstraintFPerfect(t *testing.T) {
	labels := []int{0, 0, 1}
	cons := constraints.NewSet()
	cons.Add(0, 1, true)
	cons.Add(0, 2, false)
	if got := ConstraintF(labels, cons); got != 1 {
		t.Errorf("perfect classifier F = %v", got)
	}
}

func TestConstraintFSingleClassPresent(t *testing.T) {
	labels := []int{0, 0, 1}
	onlyML := constraints.NewSet()
	onlyML.Add(0, 1, true)
	if got := ConstraintF(labels, onlyML); got != 1 {
		t.Errorf("ML-only F = %v, want 1 (averaged over the present class only)", got)
	}
	onlyCL := constraints.NewSet()
	onlyCL.Add(0, 2, false)
	if got := ConstraintF(labels, onlyCL); got != 1 {
		t.Errorf("CL-only F = %v, want 1", got)
	}
	if got := ConstraintF(labels, constraints.NewSet()); got != 0 {
		t.Errorf("empty constraint set F = %v, want 0", got)
	}
}

// Property: ConstraintF is within [0,1], and a labeling satisfying all
// constraints scores 1.
func TestConstraintFRange(t *testing.T) {
	f := func(labels [8]uint8, edges [6][2]uint8, kinds uint8) bool {
		lab := make([]int, 8)
		for i, l := range labels {
			lab[i] = int(l%4) - 1 // include noise labels
		}
		cons := constraints.NewSet()
		for i, e := range edges {
			a, b := int(e[0]%8), int(e[1]%8)
			if a == b {
				continue
			}
			cons.Add(a, b, kinds&(1<<uint(i)) != 0)
		}
		got := ConstraintF(lab, cons)
		return got >= 0 && got <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSatisfactionRate(t *testing.T) {
	labels := []int{0, 0, 1, 1}
	cons := constraints.NewSet()
	cons.Add(0, 1, true)
	cons.Add(0, 2, true)
	if got := SatisfactionRate(labels, cons); got != 0.5 {
		t.Errorf("SatisfactionRate = %v", got)
	}
	if got := SatisfactionRate(labels, constraints.NewSet()); got != 0 {
		t.Errorf("empty rate = %v", got)
	}
}

func TestOverallFPerfect(t *testing.T) {
	labels := []int{0, 0, 1, 1, 2, 2}
	truth := []int{5, 5, 7, 7, 9, 9}
	if got := OverallF(labels, truth, nil); got != 1 {
		t.Errorf("OverallF = %v, want 1", got)
	}
}

func TestOverallFHandComputed(t *testing.T) {
	// Classes {0,1,2} and {3,4,5}; clustering merges everything.
	labels := []int{0, 0, 0, 0, 0, 0}
	truth := []int{0, 0, 0, 1, 1, 1}
	// For each class: best F with the single cluster = 2*3/(3+6) = 2/3.
	if got := OverallF(labels, truth, nil); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("OverallF = %v, want 2/3", got)
	}
}

func TestOverallFNoiseSingletons(t *testing.T) {
	// All noise: each object is a singleton cluster. Classes of size 2:
	// best F per class = 2*1/(2+1) = 2/3.
	labels := []int{-1, -1, -1, -1}
	truth := []int{0, 0, 1, 1}
	if got := OverallF(labels, truth, nil); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("OverallF = %v, want 2/3", got)
	}
}

func TestOverallFEvalSubset(t *testing.T) {
	labels := []int{0, 0, 1, 99}
	truth := []int{0, 0, 1, 1}
	// Excluding object 3 (the mislabeled one) gives a perfect score.
	if got := OverallF(labels, truth, []int{0, 1, 2}); got != 1 {
		t.Errorf("OverallF on subset = %v, want 1", got)
	}
	if got := OverallF(labels, truth, []int{}); got != 0 {
		t.Errorf("OverallF on empty subset = %v, want 0", got)
	}
}

// Property: OverallF is within [0,1] and exactly 1 when labels == truth.
func TestOverallFRange(t *testing.T) {
	f := func(labels, truth [10]uint8) bool {
		lab := make([]int, 10)
		tr := make([]int, 10)
		for i := range labels {
			lab[i] = int(labels[i]%4) - 1
			tr[i] = int(truth[i] % 3)
		}
		got := OverallF(lab, tr, nil)
		if got < 0 || got > 1+1e-12 {
			return false
		}
		return math.Abs(OverallF(tr, tr, nil)-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSilhouetteTwoTightClusters(t *testing.T) {
	x := [][]float64{{0, 0}, {0.1, 0}, {10, 0}, {10.1, 0}}
	labels := []int{0, 0, 1, 1}
	got := Silhouette(x, labels)
	if got < 0.9 || got > 1 {
		t.Errorf("Silhouette = %v, want near 1", got)
	}
}

func TestSilhouetteBadPartition(t *testing.T) {
	x := [][]float64{{0, 0}, {0.1, 0}, {10, 0}, {10.1, 0}}
	labels := []int{0, 1, 0, 1} // pairs split across the gap
	got := Silhouette(x, labels)
	if got > 0 {
		t.Errorf("Silhouette = %v, want <= 0", got)
	}
}

func TestSilhouetteDegenerate(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}}
	if got := Silhouette(x, []int{0, 0, 0}); got != 0 {
		t.Errorf("single cluster = %v, want 0", got)
	}
	if got := Silhouette(x, []int{-1, -1, -1}); got != 0 {
		t.Errorf("all noise = %v, want 0", got)
	}
	// Singleton clusters contribute s=0.
	if got := Silhouette(x, []int{0, 1, 2}); got != 0 {
		t.Errorf("all singletons = %v, want 0", got)
	}
}

// Property: the silhouette coefficient is within [-1, 1].
func TestSilhouetteRange(t *testing.T) {
	f := func(pts [8][2]float64, labels [8]uint8) bool {
		x := make([][]float64, 8)
		lab := make([]int, 8)
		for i := range pts {
			a := math.Mod(pts[i][0], 100)
			b := math.Mod(pts[i][1], 100)
			if math.IsNaN(a) {
				a = 0
			}
			if math.IsNaN(b) {
				b = 0
			}
			x[i] = []float64{a, b}
			lab[i] = int(labels[i]%4) - 1
		}
		got := Silhouette(x, lab)
		return got >= -1-1e-9 && got <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
