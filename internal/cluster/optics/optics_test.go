package optics

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"cvcp/internal/linalg"
	"cvcp/internal/stats"
)

// referenceRun is the indexed-heap dense driver that run replaced, kept as
// the reference run is fuzzed against. Its core distances come from a
// separate pass over every row, and dist answers the expansion's lookups.
func referenceRun(n, minPts int, dist func(i, j int) float64, rowInto func(dst []float64, i int)) *Result {
	core := coreDistances(n, minPts, rowInto)
	processed := make([]bool, n)
	order := make([]int, 0, n)
	reach := make([]float64, 0, n)

	h := newHeap(n)
	for start := 0; start < n; start++ {
		if processed[start] {
			continue
		}
		// Begin a new walk at the first unprocessed object.
		h.push(start, math.Inf(1))
		for h.len() > 0 {
			i, r := h.pop()
			if processed[i] {
				continue
			}
			processed[i] = true
			order = append(order, i)
			reach = append(reach, r)
			if math.IsInf(core[i], 1) {
				continue // not a core object: cannot expand
			}
			for j := 0; j < n; j++ {
				if processed[j] {
					continue
				}
				nr := math.Max(core[i], dist(i, j))
				h.pushOrDecrease(j, nr)
			}
		}
	}
	return &Result{Order: order, Reach: reach, Core: core}
}

// coreDistances returns, for every object, the distance to its minPts-th
// nearest neighbor (the object itself counts as the first).
func coreDistances(n, minPts int, rowInto func(dst []float64, i int)) []float64 {
	core := make([]float64, n)
	if minPts > n {
		for i := range core {
			core[i] = math.Inf(1)
		}
		return core
	}
	if minPts == 1 {
		return core // distance to itself
	}
	d := make([]float64, n)
	h := make([]float64, minPts)
	for i := 0; i < n; i++ {
		rowInto(d, i)
		core[i] = linalg.KthSmallest(d, minPts-1, h)
	}
	return core
}

// sameResult fails the test unless got and want agree bit for bit.
func sameResult(t *testing.T, ctx string, got, want *Result) {
	t.Helper()
	if len(got.Order) != len(want.Order) {
		t.Fatalf("%s: %d objects ordered, want %d", ctx, len(got.Order), len(want.Order))
	}
	for p := range want.Order {
		if got.Order[p] != want.Order[p] || math.Float64bits(got.Reach[p]) != math.Float64bits(want.Reach[p]) {
			t.Fatalf("%s: position %d holds %d at %v, want %d at %v", ctx, p, got.Order[p], got.Reach[p], want.Order[p], want.Reach[p])
		}
	}
	for i := range want.Core {
		if math.Float64bits(got.Core[i]) != math.Float64bits(want.Core[i]) {
			t.Fatalf("%s: Core[%d] = %v, want %v", ctx, i, got.Core[i], want.Core[i])
		}
	}
}

// fuzzRows decodes data into a dataset of at most 64 rows of 1–4 finite
// coordinates and a MinPts in [1, n+2]. Coordinates are multiples of 1/4
// in [-32, 32), so distances tie exactly; a row may copy an earlier row,
// and bytes 254 and 255 decode to ∓1e300, whose distances overflow to +Inf.
func fuzzRows(data []byte) ([][]float64, int) {
	if len(data) < 3 {
		return nil, 0
	}
	n, d := 1+int(data[0])%64, 1+int(data[1])%4
	minPts := 1 + int(data[2])%(n+2)
	data = data[3:]
	pos := 0
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[pos%len(data)]
		pos++
		return b
	}
	x := make([][]float64, n)
	for i := range x {
		if b := next(); i > 0 && b >= 0xc0 {
			x[i] = x[int(b)%i]
			continue
		}
		x[i] = make([]float64, d)
		for j := range x[i] {
			switch b := next(); b {
			case 254:
				x[i][j] = -1e300
			case 255:
				x[i][j] = 1e300
			default:
				x[i][j] = float64(int8(b)) / 4
			}
		}
	}
	return x, minPts
}

// matrices builds x's distance matrix in each layout.
func matrices(x [][]float64) map[string]*linalg.DistMatrix {
	return map[string]*linalg.DistMatrix{
		"square":      linalg.NewDistMatrix(x),
		"condensed":   linalg.NewDistMatrixCondensed(x),
		"condensed32": linalg.NewDistMatrixCondensed32(x),
	}
}

// matrixReference is referenceRun on dm's own entries.
func matrixReference(dm *linalg.DistMatrix, minPts int) *Result {
	return referenceRun(dm.N(), minPts, dm.At, func(dst []float64, i int) { dm.RowInto(dst, i) })
}

// The flat-scan driver must reproduce the indexed-heap driver bit for bit:
// Run, and RunWithMatrix on all three layouts, against referenceRun on the
// same distances. The generated seeds draw coordinate bytes from 0, 4, 8
// and 12 (integer grids, where reachabilities tie exactly and the index
// tie-break decides the order), duplicate-row markers and ∓1e300 (objects
// queued with key +Inf and popped by index).
func FuzzDenseMatchesReference(f *testing.F) {
	r := stats.NewRand(5)
	alphabet := []byte{0, 4, 8, 12, 0xc1, 254, 255}
	for k := 0; k < 200; k++ {
		seed := []byte{byte(r.Intn(64)), byte(r.Intn(4)), byte(r.Intn(256))}
		for range 1 + r.Intn(300) {
			seed = append(seed, alphabet[r.Intn(len(alphabet))])
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		x, minPts := fuzzRows(data)
		if x == nil {
			return
		}
		n := len(x)
		got, err := Run(x, minPts)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceRun(n, minPts,
			func(i, j int) float64 { return linalg.Dist(x[i], x[j]) },
			func(dst []float64, i int) {
				for j := range x {
					dst[j] = linalg.Dist(x[i], x[j])
				}
			})
		sameResult(t, fmt.Sprintf("Run n=%d MinPts=%d", n, minPts), got, want)
		for name, dm := range matrices(x) {
			got, err := RunWithMatrix(dm, minPts)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("RunWithMatrix/%s n=%d MinPts=%d", name, n, minPts), got, matrixReference(dm, minPts))
		}
	})
}

// A MinPts sweep on one matrix must reproduce the reference on every run,
// whether its core distances come from per-row selection (the first run,
// MinPts past the table's width or past n) or from the matrix's
// nearest-distance table (later runs, which fill the rows the earlier
// ones left empty). data's first byte sets the sweep's length, 1–16; each
// of the next bytes one MinPts, in [1, NearestWidth+8] or, from 0xf0 up,
// n+1; the rest decodes as in FuzzDenseMatchesReference. Sweeps repeat
// values and come in any order.
func FuzzMinPtsSweepMatchesReference(f *testing.F) {
	r := stats.NewRand(24)
	alphabet := []byte{0, 4, 8, 12, 0xc1, 254, 255}
	for k := 0; k < 100; k++ {
		l := r.Intn(16)
		seed := []byte{byte(l)}
		for range l + 1 {
			seed = append(seed, byte(r.Intn(256)))
		}
		seed = append(seed, byte(r.Intn(64)), byte(r.Intn(4)), 0)
		for range 1 + r.Intn(300) {
			seed = append(seed, alphabet[r.Intn(len(alphabet))])
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		l := 1 + int(data[0])%16
		if len(data) < 1+l {
			return
		}
		x, _ := fuzzRows(data[1+l:])
		if x == nil {
			return
		}
		n := len(x)
		sweep := make([]int, l)
		for k, b := range data[1 : 1+l] {
			sweep[k] = 1 + int(b)%(linalg.NearestWidth+8)
			if b >= 0xf0 {
				sweep[k] = n + 1
			}
		}
		for name, dm := range matrices(x) {
			for k, minPts := range sweep {
				got, err := RunWithMatrix(dm, minPts)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, fmt.Sprintf("%s n=%d sweep %v, run %d", name, n, sweep, k), got, matrixReference(dm, minPts))
			}
		}
	})
}

// The runs of a sweep started at once on one matrix share its
// nearest-distance table: each fills the rows it reaches first and reads
// the rows the others published, or selects from its own row while
// another run fills it. Under -race a row read before it is published is
// a reported race; a wrong table entry is a wrong result.
func TestConcurrentSweepMatchesReference(t *testing.T) {
	x := pinnedRows(rand.New(rand.NewSource(24)), 300, 8, true, false)
	sweep := []int{3, 6, 9, 12, 15, 18, 21, 24, 2, 24, 7, 25, 301}
	for name, dm := range matrices(x) {
		want := make([]*Result, len(sweep))
		for k, minPts := range sweep {
			want[k] = matrixReference(dm, minPts)
		}
		got := make([]*Result, len(sweep))
		errs := make([]error, len(sweep))
		start := make(chan struct{})
		var wg sync.WaitGroup
		for k, minPts := range sweep {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[k], errs[k] = RunWithMatrix(dm, minPts)
			}()
		}
		close(start)
		wg.Wait()
		for k, minPts := range sweep {
			if errs[k] != nil {
				t.Fatal(errs[k])
			}
			sameResult(t, fmt.Sprintf("%s MinPts=%d", name, minPts), got[k], want[k])
		}
	}
}

// A matrix serving one MinPts, such as a refit's, carries no table: the
// first run on a matrix selects each core distance from its row, and only
// the second allocates the table, n·NearestWidth floats, and fills it.
func TestSingleRunBuildsNoTable(t *testing.T) {
	const n = 200
	x := pinnedRows(rand.New(rand.NewSource(25)), n, 4, false, false)
	allocated := func(minPts int, dm *linalg.DistMatrix) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RunWithMatrix(dm, minPts); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const table = n * linalg.NearestWidth * 8
	for name, dm := range matrices(x) {
		first := allocated(6, dm)
		second := allocated(9, dm)
		if first > 64*n {
			t.Errorf("%s: the first run allocated %d bytes, want at most %d: no table", name, first, 64*n)
		}
		if second < first+table {
			t.Errorf("%s: the second run allocated %d bytes, want the first run's %d plus the table's %d", name, second, first, table)
		}
	}
}

// A MinPts far above n is valid input, not an allocation size: the
// server accepts any MinPts >= 1. No object is a core object, so every
// core distance and reachability is +Inf, and the driver allocates a
// fixed multiple of n bytes whatever MinPts is.
func TestDenseHugeMinPts(t *testing.T) {
	const n = 100
	x := make([][]float64, n)
	for i := range x {
		x[i] = []float64{float64(i % 7), float64(i % 3)}
	}
	drivers := map[string]func(int) (*Result, error){
		"Run": func(minPts int) (*Result, error) { return Run(x, minPts) },
	}
	for name, dm := range matrices(x) {
		drivers["RunWithMatrix/"+name] = func(minPts int) (*Result, error) { return RunWithMatrix(dm, minPts) }
	}
	for name, run := range drivers {
		for _, minPts := range []int{n + 1, math.MaxInt, 1 << 40} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := run(minPts)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%s MinPts=%d: %v", name, minPts, err)
			}
			if b := after.TotalAlloc - before.TotalAlloc; b > 64*n {
				t.Errorf("%s MinPts=%d: allocated %d bytes, want at most %d", name, minPts, b, 64*n)
			}
			for p, i := range res.Order {
				if i != p || !math.IsInf(res.Reach[p], 1) || !math.IsInf(res.Core[i], 1) {
					t.Fatalf("%s MinPts=%d: position %d holds %d, reach %v, core %v; want %d, +Inf, +Inf",
						name, minPts, p, i, res.Reach[p], res.Core[i], p)
				}
			}
		}
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(nil, 2); err == nil {
		t.Error("expected error for empty data")
	}
	if _, err := Run([][]float64{{1}}, 0); err == nil {
		t.Error("expected error for MinPts=0")
	}
}

func TestOrderingIsPermutation(t *testing.T) {
	x := [][]float64{{0}, {1}, {5}, {6}, {20}}
	res, err := Run(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != len(x) || len(res.Reach) != len(x) {
		t.Fatalf("lengths %d/%d", len(res.Order), len(res.Reach))
	}
	seen := map[int]bool{}
	for _, i := range res.Order {
		if i < 0 || i >= len(x) || seen[i] {
			t.Fatalf("invalid ordering %v", res.Order)
		}
		seen[i] = true
	}
	if !math.IsInf(res.Reach[0], 1) {
		t.Errorf("first reachability = %v, want +Inf", res.Reach[0])
	}
}

func TestCoreDistances(t *testing.T) {
	// Points on a line: 0, 1, 5.
	x := [][]float64{{0}, {1}, {5}}
	res, err := Run(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	// MinPts=2: core distance = distance to nearest other point.
	want := []float64{1, 1, 4}
	for i, w := range want {
		if math.Abs(res.Core[i]-w) > 1e-12 {
			t.Errorf("Core[%d] = %v, want %v", i, res.Core[i], w)
		}
	}
}

func TestCoreDistanceMinPtsOne(t *testing.T) {
	x := [][]float64{{0}, {3}}
	res, err := Run(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.Core {
		if c != 0 {
			t.Errorf("Core[%d] = %v, want 0 (the point itself)", i, c)
		}
	}
}

func TestCoreDistanceMinPtsExceedsN(t *testing.T) {
	x := [][]float64{{0}, {1}}
	res, err := Run(x, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.Core {
		if !math.IsInf(c, 1) {
			t.Errorf("Core[%d] = %v, want +Inf", i, c)
		}
	}
	// No core points: each object starts its own walk with infinite
	// reachability.
	for i, r := range res.Reach {
		if !math.IsInf(r, 1) {
			t.Errorf("Reach[%d] = %v, want +Inf", i, r)
		}
	}
}

// TestClusterGapVisible verifies the defining property of the reachability
// plot: the jump between two well-separated groups is a large bar.
func TestClusterGapVisible(t *testing.T) {
	x := [][]float64{{0}, {0.5}, {1}, {100}, {100.5}, {101}}
	res, err := Run(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	big := 0
	for p := 1; p < len(res.Reach); p++ {
		if res.Reach[p] > 50 {
			big++
		}
	}
	if big != 1 {
		t.Errorf("expected exactly one large reachability bar, got %d (%v)", big, res.Reach)
	}
}

func TestWalkStartsAtFirstUnprocessed(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}}
	res, err := Run(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Order[0] != 0 {
		t.Errorf("ordering starts at %d, want 0", res.Order[0])
	}
}

func TestDeterministic(t *testing.T) {
	r := stats.NewRand(4)
	x := make([][]float64, 40)
	for i := range x {
		x[i] = []float64{r.NormFloat64(), r.NormFloat64()}
	}
	a, _ := Run(x, 4)
	b, _ := Run(x, 4)
	for i := range a.Order {
		if a.Order[i] != b.Order[i] || a.Reach[i] != b.Reach[i] {
			t.Fatal("OPTICS not deterministic")
		}
	}
}

// Property: core distances are non-decreasing in MinPts.
func TestCoreMonotoneInMinPts(t *testing.T) {
	f := func(seed int64) bool {
		r := stats.NewRand(seed)
		x := make([][]float64, 20)
		for i := range x {
			x[i] = []float64{r.NormFloat64() * 3, r.NormFloat64() * 3}
		}
		prev := make([]float64, len(x))
		for mp := 1; mp <= 6; mp++ {
			res, err := Run(x, mp)
			if err != nil {
				return false
			}
			for i := range x {
				if res.Core[i] < prev[i]-1e-12 {
					return false
				}
				prev[i] = res.Core[i]
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: every reachability value after the first is at least the core
// distance of some processed predecessor — in particular it is never below
// the smallest core distance in the data.
func TestReachabilityLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		r := stats.NewRand(seed)
		x := make([][]float64, 25)
		for i := range x {
			x[i] = []float64{r.NormFloat64()}
		}
		res, err := Run(x, 3)
		if err != nil {
			return false
		}
		minCore := math.Inf(1)
		for _, c := range res.Core {
			if c < minCore {
				minCore = c
			}
		}
		for p := 1; p < len(res.Reach); p++ {
			if res.Reach[p] < minCore-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
