package cvcp

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"

	"cvcp/internal/cluster/optics"
	"cvcp/internal/constraints"
	"cvcp/internal/dataset"
	"cvcp/internal/linalg"
	"cvcp/internal/stats"
)

// selectFOSC runs one constraint-supervised FOSC-OPTICSDend selection with
// the given algorithm configuration and a flushed run cache.
func selectFOSC(t *testing.T, alg Algorithm, ds *dataset.Dataset, cons *constraints.Set, params []int) *Selection {
	t.Helper()
	runCache.Flush()
	res, err := Select(context.Background(), Spec{
		Dataset:     ds,
		Grid:        Grid{{Algorithm: alg, Params: params}},
		Supervision: ConstraintSet(cons),
		Options:     Options{Seed: 97, NFolds: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Winner
}

// TestSelectionBitIdenticalBlockedVsNaive is the whole-pipeline golden test
// behind the kernel optimization: a full FOSC-OPTICSDend selection run on
// the blocked quad-kernel distance matrix must be bit-identical — same
// selected MinPts, same fold scores to the last bit, same final labels —
// to the same selection run on the naive scalar builder (the pre-
// optimization reference path). This holds because every Dist4 lane
// accumulates in the exact element order of the scalar Dist loop.
func TestSelectionBitIdenticalBlockedVsNaive(t *testing.T) {
	ds := blobsDataset(93, 3, 18, 14)
	r := stats.NewRand(94)
	cons := constraints.Sample(r, constraints.Pool(r, ds.Y, 0.3), 0.5)
	params := []int{3, 6, 9, 12}

	blocked := selectFOSC(t, FOSCOpticsDend{}, ds, cons, params)

	orig := buildDistMatrix
	buildDistMatrix = linalg.NewDistMatrixNaive
	defer func() {
		buildDistMatrix = orig
		runCache.Flush()
	}()
	naive := selectFOSC(t, FOSCOpticsDend{}, ds, cons, params)

	equalSelection(t, naive, blocked, "blocked quad-kernel vs naive scalar builder")
}

// TestFloat32SelectionAgreesOnSeparatedData is the end-to-end agreement
// test for the float32 matrix mode: on data whose distance margins dwarf
// the 2⁻²⁴ relative rounding error, the OPTICS orderings and the selected
// MinPts must agree exactly between the float64 and float32 paths.
func TestFloat32SelectionAgreesOnSeparatedData(t *testing.T) {
	ds := blobsDataset(95, 3, 18, 14)
	r := stats.NewRand(96)
	cons := constraints.Sample(r, constraints.Pool(r, ds.Y, 0.3), 0.5)
	params := []int{3, 6, 9, 12}

	f64 := selectFOSC(t, FOSCOpticsDend{}, ds, cons, params)
	f32 := selectFOSC(t, FOSCOpticsDend{Matrix32: true}, ds, cons, params)

	if f64.Best.Param != f32.Best.Param {
		t.Errorf("selected MinPts diverged: float64 %d, float32 %d", f64.Best.Param, f32.Best.Param)
	}
	if !reflect.DeepEqual(f64.FinalLabels, f32.FinalLabels) {
		t.Errorf("final labels diverged between precisions")
	}
	// Scores are ratios of constraint-satisfaction counts: when every fold
	// clustering agrees, they agree bit for bit.
	if !reflect.DeepEqual(f64.Scores, f32.Scores) {
		t.Errorf("scores diverged:\nfloat64 %v\nfloat32 %v", f64.Scores, f32.Scores)
	}

	// The orderings themselves must agree too, for every candidate MinPts.
	runCache.Flush()
	for _, mp := range params {
		a, err := opticsRun(ds, mp, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := opticsRun(ds, mp, true, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Order, b.Order) {
			t.Errorf("MinPts=%d: OPTICS ordering diverged between precisions", mp)
		}
	}
}

// TestFloat32DivergenceOnSubUlpTies pins down when the float32 mode
// legitimately diverges: two distances that differ in float64 by less than
// one float32 ULP round to the same float32 value, so a reachability
// comparison the float64 path decides by magnitude becomes a tie the
// float32 path decides by index. Here d(0,2) = 1−2⁻³⁰ < d(0,1) = 1 in
// float64, but both round to exactly 1.0 in float32.
func TestFloat32DivergenceOnSubUlpTies(t *testing.T) {
	delta := math.Ldexp(1, -30) // well below one float32 ULP at 1.0 (2⁻²⁴)
	x := [][]float64{{0}, {1}, {1 - delta}}

	d01 := x[1][0] - x[0][0]
	d02 := x[2][0] - x[0][0]
	if d01 == d02 {
		t.Fatal("setup: distances must differ in float64")
	}
	if float32(d01) != float32(d02) {
		t.Fatal("setup: distances must round to the same float32")
	}

	f64, err := optics.RunWithMatrix(linalg.NewDistMatrixCondensed(x), 2)
	if err != nil {
		t.Fatal(err)
	}
	f32, err := optics.RunWithMatrix(linalg.NewDistMatrixCondensed32(x), 2)
	if err != nil {
		t.Fatal(err)
	}
	// float64: object 2 is strictly closer to 0, so it is reached first.
	if want := []int{0, 2, 1}; !reflect.DeepEqual(f64.Order, want) {
		t.Fatalf("float64 ordering = %v, want %v", f64.Order, want)
	}
	// float32: the keys tie at exactly 1.0 and the deterministic index
	// tie-break reaches object 1 first — a legitimate, documented
	// divergence, not a bug.
	if want := []int{0, 1, 2}; !reflect.DeepEqual(f32.Order, want) {
		t.Fatalf("float32 ordering = %v, want %v", f32.Order, want)
	}
}

// Every MinPts of the default grid must fall inside a matrix's
// nearest-distance table, or the default sweep's runs would select each
// core distance per row again; and the grid's largest MinPts sets the
// table's width, so the table holds no column the grid never reads.
func TestNearestTableCoversDefaultMinPtsRange(t *testing.T) {
	for _, p := range DefaultMinPtsRange {
		if p > linalg.NearestWidth {
			t.Errorf("MinPts %d is past the table's width %d", p, linalg.NearestWidth)
		}
	}
	if widest := slices.Max(DefaultMinPtsRange); widest != linalg.NearestWidth {
		t.Errorf("the grid's largest MinPts is %d, the table's width %d", widest, linalg.NearestWidth)
	}
}
