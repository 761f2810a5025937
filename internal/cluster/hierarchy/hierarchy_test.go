package hierarchy

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"cvcp/internal/cluster/optics"
	"cvcp/internal/stats"
)

func line(points ...float64) [][]float64 {
	x := make([][]float64, len(points))
	for i, p := range points {
		x[i] = []float64{p}
	}
	return x
}

// cutAt returns the flat clustering obtained by cutting the dendrogram at
// the given height: objects connected by merges with Height <= h share a
// cluster. Labels are renumbered 0..k-1 in order of first appearance.
func cutAt(d *Dendrogram, h float64) []int {
	labels := make([]int, d.N)
	for i := range labels {
		labels[i] = -1
	}
	next := 0
	var assign func(id, lab int)
	assign = func(id, lab int) {
		nd := d.Nodes[id]
		if nd.Point >= 0 {
			labels[nd.Point] = lab
			return
		}
		assign(nd.Left, lab)
		assign(nd.Right, lab)
	}
	var walk func(id int)
	walk = func(id int) {
		nd := d.Nodes[id]
		if nd.Point >= 0 || nd.Height <= h {
			assign(id, next)
			next++
			return
		}
		walk(nd.Left)
		walk(nd.Right)
	}
	walk(d.Root)
	return labels
}

func TestSingleLinkageHandComputed(t *testing.T) {
	// Points 0, 1, 3, 10: merges at 1 (0-1), 2 (1-3), 7 (3-10).
	d, err := SingleLinkage(line(0, 1, 3, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Nodes) != 7 {
		t.Fatalf("got %d nodes, want 7", len(d.Nodes))
	}
	root := d.Nodes[d.Root]
	if root.Size != 4 {
		t.Errorf("root size = %d", root.Size)
	}
	if math.Abs(root.Height-7) > 1e-12 {
		t.Errorf("root height = %v, want 7", root.Height)
	}
	// Cutting below 7 and above 2 yields {0,1,2} and {3}.
	labels := cutAt(d, 3)
	if labels[0] != labels[1] || labels[1] != labels[2] || labels[3] == labels[0] {
		t.Errorf("cut at 3 = %v", labels)
	}
}

func TestCutAtExtremes(t *testing.T) {
	d, err := SingleLinkage(line(0, 1, 3, 10))
	if err != nil {
		t.Fatal(err)
	}
	all := cutAt(d, math.Inf(1))
	for i := 1; i < len(all); i++ {
		if all[i] != all[0] {
			t.Error("cut at +Inf must give one cluster")
		}
	}
	singletons := cutAt(d, 0.5)
	seen := map[int]bool{}
	for _, l := range singletons {
		if seen[l] {
			t.Error("cut below the smallest merge must give singletons")
		}
		seen[l] = true
	}
}

func TestFromReachabilityEquivalentToSingleLinkage(t *testing.T) {
	// With MinPts = 1 every core distance is 0, so OPTICS reachability is
	// plain distance and the dendrogram must match single linkage in its
	// merge heights.
	x := line(0, 1, 3, 10, 11, 30)
	res, err := optics.Run(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := FromReachability(res)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := SingleLinkage(x)
	if err != nil {
		t.Fatal(err)
	}
	hr := mergeHeights(dr)
	hs := mergeHeights(sl)
	if len(hr) != len(hs) {
		t.Fatalf("merge counts differ: %d vs %d", len(hr), len(hs))
	}
	for i := range hr {
		if math.Abs(hr[i]-hs[i]) > 1e-9 {
			t.Errorf("merge %d: %v vs %v", i, hr[i], hs[i])
		}
	}
}

func mergeHeights(d *Dendrogram) []float64 {
	var hs []float64
	for _, nd := range d.Nodes {
		if nd.Point < 0 {
			hs = append(hs, nd.Height)
		}
	}
	// Heights were appended in merge order, which is ascending for both
	// constructions; sort anyway for robustness.
	for i := 1; i < len(hs); i++ {
		for j := i; j > 0 && hs[j] < hs[j-1]; j-- {
			hs[j], hs[j-1] = hs[j-1], hs[j]
		}
	}
	return hs
}

func TestMembersAndPostOrder(t *testing.T) {
	d, err := SingleLinkage(line(0, 1, 3, 10))
	if err != nil {
		t.Fatal(err)
	}
	post := d.PostOrder()
	if len(post) != len(d.Nodes) {
		t.Fatalf("post-order covers %d of %d nodes", len(post), len(d.Nodes))
	}
	var members []int
	for _, id := range post {
		if p := d.Nodes[id].Point; p >= 0 {
			members = append(members, p)
		}
	}
	slices.Sort(members)
	if !slices.Equal(members, []int{0, 1, 2, 3}) {
		t.Errorf("root members = %v", members)
	}
	pos := make(map[int]int)
	for i, id := range post {
		pos[id] = i
	}
	for id, nd := range d.Nodes {
		if nd.Point >= 0 {
			continue
		}
		if pos[nd.Left] > pos[id] || pos[nd.Right] > pos[id] {
			t.Errorf("node %d precedes its children in post-order", id)
		}
	}
	if post[len(post)-1] != d.Root {
		t.Error("post-order must end at the root")
	}
}

// The separator LCA must agree with a parent-pointer walk on every pair,
// on single-linkage trees and on OPTICS dendrograms built by
// FromReachability: random data with duplicate points (zero-height bars
// and height ties) and +Inf bars (MinPts above n, where every bar is
// +Inf, and finite-ε orderings with several density components).
func TestLCAAgainstNaive(t *testing.T) {
	r := stats.NewRand(3)
	var trees []*Dendrogram
	for _, n := range []int{1, 2, 3, 30, 64} {
		x := make([][]float64, n)
		for i := range x {
			x[i] = []float64{r.NormFloat64() * 5}
		}
		d, err := SingleLinkage(x)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, d)
	}
	for _, n := range []int{1, 2, 7, 40, 90} {
		x := make([][]float64, n)
		for i := range x {
			if i > 0 && r.Intn(3) == 0 {
				x[i] = x[r.Intn(i)] // duplicate point
				continue
			}
			x[i] = []float64{math.Round(r.NormFloat64() * 3), math.Round(r.NormFloat64() * 3)}
		}
		for _, minPts := range []int{1, 3, n + 1} {
			res, err := optics.Run(x, minPts)
			if err != nil {
				t.Fatal(err)
			}
			trees = append(trees, mustReach(t, res))
		}
		res, err := optics.RunWithEps(x, 2, 1.5)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, mustReach(t, res))
	}
	for ti, d := range trees {
		l := NewLCA(d)
		naive := func(a, b int) int {
			anc := map[int]bool{}
			for v := a; v != -1; v = d.Nodes[v].Parent {
				anc[v] = true
			}
			for v := b; v != -1; v = d.Nodes[v].Parent {
				if anc[v] {
					return v
				}
			}
			return -1
		}
		for a := 0; a < d.N; a++ {
			for b := 0; b < d.N; b++ {
				if got, want := l.Query(a, b), naive(a, b); got != want {
					t.Fatalf("tree %d (n=%d): LCA(%d,%d) = %d, want %d", ti, d.N, a, b, got, want)
				}
			}
		}
	}
}

// fromReachabilityReference is FromReachability as a comparison sort and
// a union-find merge: the bars in (height, position) order, each merging
// the current roots of its two neighbouring objects. The radix-ranked
// Cartesian build must match it node for node.
func fromReachabilityReference(res *optics.Result) (*Dendrogram, error) {
	n := len(res.Order)
	if n == 0 {
		return nil, fmt.Errorf("hierarchy: empty ordering")
	}
	type bar struct {
		pos int
		h   float64
	}
	bars := make([]bar, 0, n-1)
	for p := 1; p < n; p++ {
		bars = append(bars, bar{pos: p, h: res.Reach[p]})
	}
	slices.SortFunc(bars, func(a, b bar) int {
		return cmp.Or(cmp.Compare(a.h, b.h), a.pos-b.pos)
	})
	d := newLeaves(n)
	find := make([]int, 0, 2*n-1)
	for i := 0; i < n; i++ {
		find = append(find, i)
	}
	var root func(int) int
	root = func(v int) int {
		if find[v] == v {
			return v
		}
		find[v] = root(find[v])
		return find[v]
	}
	for _, b := range bars {
		a := root(res.Order[b.pos-1])
		c := root(res.Order[b.pos])
		if a == c {
			return nil, fmt.Errorf("hierarchy: ordering positions %d and %d already merged", b.pos-1, b.pos)
		}
		id := d.merge(a, c, b.h)
		find = append(find, id)
		find[a] = id
		find[c] = id
	}
	d.Root = root(res.Order[0])
	return d, nil
}

// fuzzHeight maps a byte to a bar height, most of them from a small set
// so that bars tie: NaNs of both signs, ±0, ±Inf, negatives, huge and
// subnormal values, or a draw from r.
func fuzzHeight(b byte, r *rand.Rand) float64 {
	palette := []float64{
		math.NaN(), math.Float64frombits(0xfff8000000000001), math.Copysign(0, -1), 0,
		math.Inf(1), math.Inf(-1), 1, 2, 0.5, -1, 1e300, 5e-324, math.Nextafter(1, 2),
	}
	if int(b) < len(palette) {
		return palette[b]
	}
	if b%2 == 0 {
		return float64(b % 7)
	}
	return r.NormFloat64()
}

// sameDendrogram reports the first node, or the root, where got and want
// differ, comparing heights by their bits.
func sameDendrogram(got, want *Dendrogram) error {
	if got.N != want.N || got.Root != want.Root || len(got.Nodes) != len(want.Nodes) {
		return fmt.Errorf("N, root, nodes = %d, %d, %d; want %d, %d, %d",
			got.N, got.Root, len(got.Nodes), want.N, want.Root, len(want.Nodes))
	}
	for id, g := range got.Nodes {
		w := want.Nodes[id]
		if g.Left != w.Left || g.Right != w.Right || g.Parent != w.Parent || g.Point != w.Point || g.Size != w.Size ||
			math.Float64bits(g.Height) != math.Float64bits(w.Height) {
			return fmt.Errorf("node %d = %+v, want %+v", id, g, w)
		}
	}
	return nil
}

// FromReachability must build the reference's dendrogram bit for bit on
// any ordering and any heights, NaN and −0 included, and must reject an
// ordering that repeats an object, as the reference does.
func FuzzFromReachabilityMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{})
	f.Add(int64(2), uint8(1), []byte{7})
	f.Add(int64(3), uint8(9), []byte{6, 6, 6})
	f.Add(int64(4), uint8(40), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(int64(5), uint8(63), []byte{2, 3, 20, 4, 4, 255})
	f.Add(int64(6), uint8(200), []byte{101, 103, 105, 107})
	f.Fuzz(func(t *testing.T, seed int64, size uint8, hs []byte) {
		n := 1 + int(size)
		r := rand.New(rand.NewSource(seed))
		res := &optics.Result{Order: r.Perm(n), Reach: make([]float64, n)}
		for p := range res.Reach {
			b := byte(r.Intn(256))
			if len(hs) > 0 {
				b = hs[p%len(hs)]
			}
			res.Reach[p] = fuzzHeight(b, r)
		}
		want, err := fromReachabilityReference(res)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		got, err := FromReachability(res)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameDendrogram(got, want); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}

		if n < 2 {
			return
		}
		i, j := r.Intn(n), r.Intn(n-1)
		if j >= i {
			j++
		}
		res.Order[j] = res.Order[i]
		if _, err := fromReachabilityReference(res); err == nil {
			t.Fatal("reference accepted an ordering that repeats an object")
		}
		if d, err := FromReachability(res); err == nil {
			t.Fatalf("ordering %v repeats object %d, yet FromReachability built %+v", res.Order, res.Order[i], d)
		}
	})
}

func mustReach(t *testing.T, res *optics.Result) *Dendrogram {
	t.Helper()
	d, err := FromReachability(res)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// Property: a dendrogram over n points has 2n-1 nodes, the root covers all
// points, and every internal node's size is the sum of its children's.
func TestDendrogramInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := stats.NewRand(seed)
		n := 5 + int(seed%20+20)%20
		x := make([][]float64, n)
		for i := range x {
			x[i] = []float64{r.NormFloat64(), r.NormFloat64()}
		}
		res, err := optics.Run(x, 3)
		if err != nil {
			return false
		}
		d, err := FromReachability(res)
		if err != nil {
			return false
		}
		if len(d.Nodes) != 2*n-1 || d.Nodes[d.Root].Size != n {
			return false
		}
		for _, nd := range d.Nodes {
			if nd.Point >= 0 {
				if nd.Size != 1 {
					return false
				}
				continue
			}
			if nd.Size != d.Nodes[nd.Left].Size+d.Nodes[nd.Right].Size {
				return false
			}
			// Parent pointers consistent.
			if d.Nodes[nd.Left].Parent == -1 || d.Nodes[nd.Right].Parent == -1 {
				return false
			}
		}
		return d.Nodes[d.Root].Parent == -1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestErrors(t *testing.T) {
	if _, err := SingleLinkage(nil); err == nil {
		t.Error("expected error for empty input")
	}
	if _, err := FromReachability(&optics.Result{}); err == nil {
		t.Error("expected error for empty ordering")
	}
	for _, order := range [][]int{{0, 2, 0}, {1, 1}, {0, 3, 1}, {-1, 0}} {
		if _, err := FromReachability(&optics.Result{Order: order, Reach: make([]float64, len(order))}); err == nil {
			t.Errorf("FromReachability accepted the ordering %v", order)
		}
	}
}

func TestSinglePoint(t *testing.T) {
	d, err := SingleLinkage(line(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Nodes) != 1 || d.Root != 0 || d.Nodes[0].Size != 1 {
		t.Errorf("single-point dendrogram: %+v", d)
	}
	labels := cutAt(d, 1)
	if labels[0] != 0 {
		t.Errorf("labels = %v", labels)
	}
}
