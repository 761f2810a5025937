package fosc

import (
	"testing"
	"testing/quick"

	"cvcp/internal/cluster/hierarchy"
	"cvcp/internal/constraints"
	"cvcp/internal/stats"
)

func line(points ...float64) [][]float64 {
	x := make([][]float64, len(points))
	for i, p := range points {
		x[i] = []float64{p}
	}
	return x
}

// members returns the object indices under node id.
func members(d *hierarchy.Dendrogram, id int) []int {
	if nd := d.Nodes[id]; nd.Point < 0 {
		return append(members(d, nd.Left), members(d, nd.Right)...)
	}
	return []int{d.Nodes[id].Point}
}

func mustDendrogram(t *testing.T, x [][]float64) *hierarchy.Dendrogram {
	t.Helper()
	d, err := hierarchy.SingleLinkage(x)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestExtractErrors(t *testing.T) {
	if _, err := Extract(nil, nil, Config{}); err == nil {
		t.Error("expected error for nil dendrogram")
	}
	d := mustDendrogram(t, line(0, 1, 10, 11))
	bad := constraints.NewSet()
	bad.Add(0, 1, true)
	bad.Add(0, 1, false)
	if _, err := Extract(d, bad, Config{}); err == nil {
		t.Error("expected error for conflicting constraints")
	}
}

func TestExtractTwoGroups(t *testing.T) {
	d := mustDendrogram(t, line(0, 1, 2, 10, 11, 12))
	cons := constraints.NewSet()
	cons.Add(0, 1, true)
	cons.Add(3, 4, true)
	cons.Add(0, 3, false)
	res, err := Extract(d, cons, Config{MinClusterSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 2 {
		t.Fatalf("got %d clusters: %v", res.NumClusters, res.Labels)
	}
	if res.Labels[0] != res.Labels[1] || res.Labels[0] != res.Labels[2] {
		t.Errorf("left group split: %v", res.Labels)
	}
	if res.Labels[3] != res.Labels[4] || res.Labels[0] == res.Labels[3] {
		t.Errorf("groups not separated: %v", res.Labels)
	}
	if res.Satisfaction != 3 || res.Total != 3 {
		t.Errorf("satisfaction %v/%d", res.Satisfaction, res.Total)
	}
}

// Cannot-link inside a tight group: FOSC must split it or drop points to
// noise rather than violate, when the split costs nothing else.
func TestExtractCannotLinkForcesSplit(t *testing.T) {
	d := mustDendrogram(t, line(0, 1, 2, 3, 20, 21, 22, 23))
	cons := constraints.NewSet()
	cons.Add(0, 3, false) // inside the left group
	cons.Add(4, 5, true)
	res, err := Extract(d, cons, Config{MinClusterSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Labels[0] >= 0 && res.Labels[0] == res.Labels[3] {
		t.Errorf("cannot-link violated: %v", res.Labels)
	}
	if res.Satisfaction != 2 {
		t.Errorf("satisfaction = %v, want 2", res.Satisfaction)
	}
}

func TestExtractNoConstraintsGivesRootChildren(t *testing.T) {
	d := mustDendrogram(t, line(0, 1, 2, 10, 11, 12))
	res, err := Extract(d, nil, Config{MinClusterSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 2 {
		t.Errorf("no-constraint extraction gave %d clusters", res.NumClusters)
	}
}

func TestMinClusterSizeForcesNoise(t *testing.T) {
	// Two points far from a group of four, minSize 3: the pair must be
	// noise.
	d := mustDendrogram(t, line(0, 1, 2, 3, 100, 101))
	cons := constraints.NewSet()
	cons.Add(0, 1, true)
	res, err := Extract(d, cons, Config{MinClusterSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Labels[4] != -1 || res.Labels[5] != -1 {
		t.Errorf("small far group must be noise: %v", res.Labels)
	}
}

// bruteForce enumerates every admissible selection of dendrogram nodes and
// returns the maximum number of satisfied constraints.
func bruteForce(d *hierarchy.Dendrogram, cons *constraints.Set, cfg Config) float64 {
	minSize := cfg.MinClusterSize
	if minSize <= 0 {
		minSize = 2
	}
	type labeling map[int]int
	nextID := 0
	var enumerate func(id int) []labeling
	enumerate = func(id int) []labeling {
		nd := d.Nodes[id]
		selectable := nd.Size >= minSize && (cfg.AllowRootCluster || id != d.Root)
		if nd.Point >= 0 {
			opts := []labeling{{nd.Point: -1}}
			if minSize <= 1 && selectable {
				nextID++
				opts = append(opts, labeling{nd.Point: nextID})
			}
			return opts
		}
		var opts []labeling
		if nd.Size < minSize {
			all := labeling{}
			for _, o := range members(d, id) {
				all[o] = -1
			}
			return []labeling{all}
		}
		left := enumerate(nd.Left)
		right := enumerate(nd.Right)
		for _, l := range left {
			for _, r := range right {
				combined := labeling{}
				for k, v := range l {
					combined[k] = v
				}
				for k, v := range r {
					combined[k] = v
				}
				opts = append(opts, combined)
			}
		}
		if selectable {
			nextID++
			all := labeling{}
			for _, o := range members(d, id) {
				all[o] = nextID
			}
			opts = append(opts, all)
		}
		return opts
	}
	best := -1.0
	for _, lab := range enumerate(d.Root) {
		labels := make([]int, d.N)
		for o, v := range lab {
			labels[o] = v
		}
		if s := countSatisfied(labels, cons); s > best {
			best = s
		}
	}
	return best
}

// Property: the DP's satisfaction equals the brute-force optimum over all
// admissible flat clusterings, for random small instances.
func TestExtractMatchesBruteForce(t *testing.T) {
	f := func(seed int64, consBits uint16, minSizeRaw uint8) bool {
		r := stats.NewRand(seed)
		n := 7
		x := make([][]float64, n)
		for i := range x {
			x[i] = []float64{r.NormFloat64() * 3}
		}
		d, err := hierarchy.SingleLinkage(x)
		if err != nil {
			return false
		}
		cons := constraints.NewSet()
		bit := 0
		for a := 0; a < n && bit < 16; a++ {
			for b := a + 1; b < n && bit < 16; b += 2 {
				if consBits&(1<<uint(bit)) != 0 {
					cons.Add(a, b, (a+b)%2 == 0)
				}
				bit++
			}
		}
		if cons.Validate() != nil {
			return true
		}
		cfg := Config{MinClusterSize: int(minSizeRaw%3) + 1}
		res, err := Extract(d, cons, cfg)
		if err != nil {
			return false
		}
		want := bruteForce(d, cons, cfg)
		if res.Satisfaction != want {
			t.Logf("seed=%d minSize=%d: DP=%v brute=%v labels=%v",
				seed, cfg.MinClusterSize, res.Satisfaction, want, res.Labels)
			return false
		}
		// The reported satisfaction must match a recount over the labels.
		return countSatisfied(res.Labels, cons) == res.Satisfaction
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSelectedNodesAreAntichain(t *testing.T) {
	r := stats.NewRand(11)
	x := make([][]float64, 20)
	for i := range x {
		x[i] = []float64{r.NormFloat64() * 4}
	}
	d, err := hierarchy.SingleLinkage(x)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, 20)
	for i := range idx {
		idx[i] = i
	}
	y := make([]int, 20)
	for i := range y {
		y[i] = i % 3
	}
	cons := constraints.FromLabels(idx[:8], y)
	res, err := Extract(d, cons, Config{MinClusterSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	// No selected node may be an ancestor of another.
	for _, a := range res.SelectedNodes {
		for _, b := range res.SelectedNodes {
			if a == b {
				continue
			}
			for v := d.Nodes[b].Parent; v != -1; v = d.Nodes[v].Parent {
				if v == a {
					t.Fatalf("node %d is an ancestor of selected node %d", a, b)
				}
			}
		}
	}
	// Labels and NumClusters consistent.
	maxLabel := -1
	for _, l := range res.Labels {
		if l > maxLabel {
			maxLabel = l
		}
	}
	if maxLabel+1 != res.NumClusters {
		t.Errorf("NumClusters=%d but max label=%d", res.NumClusters, maxLabel)
	}
}
