package optics

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"cvcp/internal/linalg"
)

func randRows(r *rand.Rand, n, d int) [][]float64 {
	x := make([][]float64, n)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = r.NormFloat64()
		}
	}
	return x
}

// bruteRange is the reference the tree is tested against: scan every row,
// include exactly when the computed distance is <= eps, in index order.
func bruteRange(x [][]float64, q []float64, eps float64) []Neighbor {
	var out []Neighbor
	for j := range x {
		if d := linalg.Dist(q, x[j]); d <= eps {
			out = append(out, Neighbor{Index: j, Dist: d})
		}
	}
	return out
}

func sameNeighbors(t *testing.T, ctx string, got, want []Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d neighbors, want %d\ngot  %v\nwant %v", ctx, len(got), len(want), got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("%s: neighbor %d = %+v, want %+v", ctx, k, got[k], want[k])
		}
	}
}

// The tree must return exactly the brute-force result set — same indices,
// same exact distances, same canonical (index-sorted) order — for every
// query point and radius, including ε = 0, ε exactly on a pairwise
// distance, and ε at or beyond the dataset diameter. Every dataset runs
// twice: as drawn, and with a row at ±1e300 and a copy of it appended,
// whose distances to every other row overflow to +Inf, so pruning bounds
// meet +Inf − +Inf. The ε probes come from the finite pairwise distances,
// so the second run keeps every finite boundary of the first.
func TestVPTreeRangeMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for _, rows := range []int{1, 2, 3, 7, 33, 120} {
		for _, d := range []int{2, 8} {
			huge := make([]float64, d)
			for j := range huge {
				huge[j] = 1e300
				if j%2 == 1 {
					huge[j] = -1e300
				}
			}
			drawn := randRows(r, rows, d)
			withHuge := append(drawn[:rows:rows], huge, append([]float64(nil), huge...))
			for _, x := range [][][]float64{drawn, withHuge} {
				n := len(x)
				tree := NewVPTree(x)

				// Dataset diameter and a sorted pool of exact finite
				// pairwise distances for boundary-ε probes.
				var dists []float64
				for i := 0; i < n; i++ {
					for j := i + 1; j < n; j++ {
						if dist := linalg.Dist(x[i], x[j]); !math.IsInf(dist, 1) {
							dists = append(dists, dist)
						}
					}
				}
				sort.Float64s(dists)
				diameter := 0.0
				if len(dists) > 0 {
					diameter = dists[len(dists)-1]
				}

				epsCases := []float64{0, diameter, diameter * 1.5, math.Inf(1)}
				if len(dists) > 0 {
					// ε exactly equal to an existing pairwise distance (the
					// boundary point must be included: d <= eps), and one ULP
					// below it (it must be excluded).
					mid := dists[len(dists)/2]
					epsCases = append(epsCases, mid, math.Nextafter(mid, 0), mid/3)
				}
				var buf []Neighbor
				for _, eps := range epsCases {
					for i := 0; i < n; i++ {
						buf = tree.RangeInto(buf, x[i], eps)
						sameNeighbors(t, "query from row", buf, bruteRange(x, x[i], eps))
					}
					// Off-dataset query points too.
					q := make([]float64, d)
					for k := range q {
						q[k] = r.NormFloat64() * 2
					}
					buf = tree.RangeInto(buf, q, eps)
					sameNeighbors(t, "off-dataset query", buf, bruteRange(x, q, eps))
				}
			}
		}
	}
}

// Duplicate points must all be reported, and an ε = 0 query from a
// duplicated point must return every copy (distance exactly zero).
func TestVPTreeDuplicates(t *testing.T) {
	x := [][]float64{
		{1, 1}, {3, 0}, {1, 1}, {2, 2}, {1, 1}, {3, 0},
	}
	tree := NewVPTree(x)
	got := tree.RangeInto(nil, []float64{1, 1}, 0)
	sameNeighbors(t, "eps=0 on triplicate", got, []Neighbor{
		{Index: 0, Dist: 0}, {Index: 2, Dist: 0}, {Index: 4, Dist: 0},
	})
	got = tree.RangeInto(got, []float64{3, 0}, 0)
	sameNeighbors(t, "eps=0 on duplicate", got, []Neighbor{
		{Index: 1, Dist: 0}, {Index: 5, Dist: 0},
	})
	// All points identical: every query returns the whole set.
	same := [][]float64{{5, 5}, {5, 5}, {5, 5}, {5, 5}}
	tree = NewVPTree(same)
	got = tree.RangeInto(got, []float64{5, 5}, 0)
	sameNeighbors(t, "all-identical", got, bruteRange(same, []float64{5, 5}, 0))
}

func TestVPTreeEmpty(t *testing.T) {
	tree := NewVPTree(nil)
	if got := tree.RangeInto(nil, []float64{1}, math.Inf(1)); len(got) != 0 {
		t.Fatalf("empty tree returned %v", got)
	}
}

// A built tree must be safe for concurrent queries (run under -race):
// GOMAXPROCS goroutines hammer overlapping queries with private buffers
// and every result must still match brute force.
func TestVPTreeConcurrentQueries(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	x := randRows(r, 200, 4)
	tree := NewVPTree(x)
	want := make([][]Neighbor, len(x))
	for i := range x {
		want[i] = bruteRange(x, x[i], 1.5)
	}
	workers := runtime.GOMAXPROCS(0) * 2
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			var buf []Neighbor
			for iter := 0; iter < 300; iter++ {
				i := rr.Intn(len(x))
				buf = tree.RangeInto(buf, x[i], 1.5)
				if len(buf) != len(want[i]) {
					errc <- fmt.Errorf("query %d: got %d neighbors, want %d", i, len(buf), len(want[i]))
					return
				}
				for k := range buf {
					if buf[k] != want[i][k] {
						errc <- fmt.Errorf("query %d neighbor %d: got %+v want %+v", i, k, buf[k], want[i][k])
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// linalg.KthSmallest, which selects core distances the table does not
// hold, must select exactly the value sort would place at index k,
// on adversarial shapes: duplicates, all-equal, pre-sorted, reversed,
// slices containing +Inf, rows of length 1 and every k up to n-1. One
// heap buffer, longer than any k needs, serves every call, as it serves
// every row of an OPTICS run; the input row must come back unchanged.
func TestKthSmallestMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	allEqual := make([]float64, 97)
	for i := range allEqual {
		allEqual[i] = 2.5
	}
	cases := [][]float64{
		{0},
		{math.Inf(1)},
		{2, 1},
		{1, 1, 1, 1, 1},
		allEqual,
		{5, 4, 3, 2, 1, 0},
		{0, 1, 2, 3, 4, 5},
		{3, 1, 3, 1, 3, 1, 3},
		{math.Inf(1), 0, 2, math.Inf(1), 1},
	}
	for trial := 0; trial < 50; trial++ {
		v := make([]float64, 1+r.Intn(64))
		for i := range v {
			v[i] = float64(r.Intn(10)) // many ties
		}
		cases = append(cases, v)
	}
	buf := make([]float64, 128)
	for i := range buf {
		buf[i] = -1 // stale contents a call must overwrite
	}
	for ci, c := range cases {
		want := append([]float64(nil), c...)
		sort.Float64s(want)
		row := append([]float64(nil), c...)
		for k := range c {
			if got := linalg.KthSmallest(row, k, buf); got != want[k] {
				t.Fatalf("case %d: KthSmallest(k=%d) = %v, want %v (input %v)", ci, k, got, want[k], c)
			}
		}
		if got, last := linalg.KthSmallest(row, len(c)-1, buf[:len(c)]), want[len(c)-1]; got != last {
			t.Fatalf("case %d: KthSmallest(k=n-1) with an exact-length buffer = %v, want the maximum %v", ci, got, last)
		}
		for i := range c {
			if math.Float64bits(row[i]) != math.Float64bits(c[i]) {
				t.Fatalf("case %d: KthSmallest changed the row at %d: %v, was %v", ci, i, row[i], c[i])
			}
		}
	}
}

// With ε = +Inf the tree-backed finite-ε driver must reproduce Run
// bit-for-bit: same ordering, same reachability bytes, same core
// distances.
func TestRunWithEpsInfMatchesRun(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	for _, n := range []int{1, 2, 9, 60} {
		x := randRows(r, n, 3)
		for _, minPts := range []int{1, 2, 4, n, n + 3} {
			want, err := Run(x, minPts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunWithEps(x, minPts, math.Inf(1))
			if err != nil {
				t.Fatal(err)
			}
			for p := range want.Order {
				if got.Order[p] != want.Order[p] {
					t.Fatalf("n=%d minPts=%d: Order[%d] = %d, want %d", n, minPts, p, got.Order[p], want.Order[p])
				}
				if math.Float64bits(got.Reach[p]) != math.Float64bits(want.Reach[p]) {
					t.Fatalf("n=%d minPts=%d: Reach[%d] = %v, want %v", n, minPts, p, got.Reach[p], want.Reach[p])
				}
			}
			for i := range want.Core {
				if math.Float64bits(got.Core[i]) != math.Float64bits(want.Core[i]) {
					t.Fatalf("n=%d minPts=%d: Core[%d] = %v, want %v", n, minPts, i, got.Core[i], want.Core[i])
				}
			}
		}
	}
}

// With a finite ε between the intra- and inter-cluster scales, objects in
// different clusters are never ε-reachable: each cluster starts its own
// walk with +Inf reachability, and isolated points are non-core.
func TestRunWithEpsSeparatesClusters(t *testing.T) {
	var x [][]float64
	r := rand.New(rand.NewSource(71))
	for c := 0.0; c < 3; c++ {
		for i := 0; i < 10; i++ {
			x = append(x, []float64{c*100 + r.Float64(), c*100 + r.Float64()})
		}
	}
	res, err := RunWithEps(x, 3, 5.0)
	if err != nil {
		t.Fatal(err)
	}
	infs := 0
	for p, i := range res.Order {
		if math.IsInf(res.Reach[p], 1) {
			infs++
		}
		if math.IsInf(res.Core[i], 1) {
			t.Fatalf("object %d non-core despite 10 cluster-mates within eps", i)
		}
	}
	if infs != 3 {
		t.Fatalf("expected exactly 3 walk starts (one per cluster), got %d", infs)
	}
}

func TestRunWithEpsErrors(t *testing.T) {
	x := [][]float64{{0}, {1}}
	if _, err := RunWithEps(nil, 2, 1); err == nil {
		t.Fatal("empty dataset: expected error")
	}
	if _, err := RunWithEps(x, 0, 1); err == nil {
		t.Fatal("MinPts=0: expected error")
	}
	if _, err := RunWithEps(x, 2, -1); err == nil {
		t.Fatal("negative eps: expected error")
	}
	if _, err := RunWithEps(x, 2, math.NaN()); err == nil {
		t.Fatal("NaN eps: expected error")
	}
}

// A MinPts far above n is valid input, not an allocation size: no object
// has that many ε-neighbors, so every core distance is +Inf.
func TestRunWithEpsHugeMinPts(t *testing.T) {
	x := [][]float64{{0}, {1}, {3}}
	for _, minPts := range []int{len(x) + 1, math.MaxInt, 1 << 40} {
		res, err := RunWithEps(x, minPts, 1)
		if err != nil {
			t.Fatalf("MinPts=%d: %v", minPts, err)
		}
		for i, c := range res.Core {
			if !math.IsInf(c, 1) {
				t.Fatalf("MinPts=%d: Core[%d] = %v, want +Inf", minPts, i, c)
			}
		}
	}
}

// Steady-state range queries from a reused buffer must not allocate
// (beyond result growth on first use) — the property that keeps the
// finite-ε expansion loop allocation-free per neighbor scan.
func TestVPTreeRangeIntoReusesBuffer(t *testing.T) {
	x := randRows(rand.New(rand.NewSource(73)), 100, 3)
	tree := NewVPTree(x)
	buf := tree.RangeInto(nil, x[0], math.Inf(1)) // grow to max size once
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < 100; i += 13 {
			buf = tree.RangeInto(buf, x[i], 2.0)
		}
	})
	if allocs != 0 {
		t.Fatalf("RangeInto allocates %v per run with a warm buffer, want 0", allocs)
	}
}
