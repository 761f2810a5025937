package datagen

import (
	"testing"

	"cvcp/internal/dataset"
)

// shapes the paper reports for each dataset (Section 4.1).
func TestDatasetShapes(t *testing.T) {
	cases := []struct {
		ds               *dataset.Dataset
		n, dims, classes int
	}{
		{Iris(1), 150, 4, 3},
		{Wine(1), 178, 13, 3},
		{Ionosphere(1), 351, 34, 2},
		{Ecoli(1), 336, 7, 8},
		{Zyeast(1), 205, 20, 4},
	}
	for _, c := range cases {
		if c.ds.N() != c.n || c.ds.Dims() != c.dims || c.ds.NumClasses() != c.classes {
			t.Errorf("%s: got %d×%d with %d classes, want %d×%d with %d",
				c.ds.Name, c.ds.N(), c.ds.Dims(), c.ds.NumClasses(), c.n, c.dims, c.classes)
		}
	}
}

func TestALOIShapes(t *testing.T) {
	sets := ALOI(42, 3)
	if len(sets) != 3 {
		t.Fatalf("got %d sets", len(sets))
	}
	for _, ds := range sets {
		if ds.N() != 125 || ds.Dims() != 144 || ds.NumClasses() != 5 {
			t.Errorf("%s: %d×%d, %d classes", ds.Name, ds.N(), ds.Dims(), ds.NumClasses())
		}
		counts := make([]int, ds.NumClasses())
		for _, y := range ds.Y {
			counts[y]++
		}
		for c, n := range counts {
			if n != 25 {
				t.Errorf("%s class %d has %d objects, want 25", ds.Name, c, n)
			}
		}
	}
}

func TestEcoliClassSkew(t *testing.T) {
	ds := Ecoli(5)
	sizes := map[int]int{}
	for _, y := range ds.Y {
		sizes[y]++
	}
	if sizes[0] != 143 || sizes[7] != 2 {
		t.Errorf("class sizes = %v, want the original skew (143 … 2)", sizes)
	}
}

func TestIonosphereClassSizes(t *testing.T) {
	ds := Ionosphere(5)
	sizes := map[int]int{}
	for _, y := range ds.Y {
		sizes[y]++
	}
	if sizes[0] != 225 || sizes[1] != 126 {
		t.Errorf("class sizes = %v, want 225 good / 126 bad", sizes)
	}
}

// Generators must be deterministic in their seed and produce different data
// for different seeds.
func TestDeterminism(t *testing.T) {
	a := Zyeast(9)
	b := Zyeast(9)
	c := Zyeast(10)
	if a.X[0][0] != b.X[0][0] || a.Y[3] != b.Y[3] {
		t.Error("same seed produced different data")
	}
	same := true
	for i := range a.X {
		if a.X[i][0] != c.X[i][0] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

// Object order must not encode the class (folds would otherwise be
// accidentally stratified): check the first ten labels are not sorted.
func TestShuffled(t *testing.T) {
	for _, ds := range []*dataset.Dataset{Iris(3), Ecoli(3), ALOI(3, 1)[0]} {
		sorted := true
		for i := 1; i < 20; i++ {
			if ds.Y[i] < ds.Y[i-1] {
				sorted = false
				break
			}
		}
		if sorted {
			t.Errorf("%s: labels appear sorted by class", ds.Name)
		}
	}
}

func TestUCISuite(t *testing.T) {
	suite := UCISuite(7)
	if len(suite) != 5 {
		t.Fatalf("suite has %d datasets", len(suite))
	}
	want := []string{"iris", "wine", "ionosphere", "ecoli", "zyeast"}
	for i, ds := range suite {
		if ds.Name != want[i] {
			t.Errorf("suite[%d] = %s, want %s", i, ds.Name, want[i])
		}
	}
}
