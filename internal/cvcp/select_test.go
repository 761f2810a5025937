package cvcp

import (
	"context"
	"errors"
	"sync"
	"testing"

	"cvcp/internal/constraints"
	"cvcp/internal/dataset"
	"cvcp/internal/runner"
	"cvcp/internal/stats"
)

func TestSelectValidation(t *testing.T) {
	ds := blobsDataset(110, 2, 10, 10)
	idx := allIdx(ds.N())
	ctx := context.Background()
	cases := []struct {
		name string
		spec Spec
	}{
		{"nil dataset", Spec{Grid: Grid{{Algorithm: MPCKMeans{}, Params: []int{2}}}, Supervision: Labels(idx)}},
		{"empty grid", Spec{Dataset: ds, Supervision: Labels(idx)}},
		{"nil algorithm", Spec{Dataset: ds, Grid: Grid{{Params: []int{2}}}, Supervision: Labels(idx)}},
		{"empty params", Spec{Dataset: ds, Grid: Grid{{Algorithm: MPCKMeans{}}}, Supervision: Labels(idx)}},
		{"nil supervision", Spec{Dataset: ds, Grid: Grid{{Algorithm: MPCKMeans{}, Params: []int{2}}}}},
		{"bootstrap on constraints", Spec{
			Dataset:     ds,
			Grid:        Grid{{Algorithm: MPCKMeans{}, Params: []int{2}}},
			Supervision: ConstraintSet(constraints.FromLabels(idx, ds.Y)),
			Scorer:      Bootstrap{},
		}},
		{"incomplete validity index", Spec{
			Dataset:     ds,
			Grid:        Grid{{Algorithm: MPCKMeans{}, Params: []int{2}}},
			Supervision: ConstraintSet(nil),
			Scorer:      Validity{Index: ValidityIndex{Name: "broken"}},
		}},
	}
	for _, c := range cases {
		if _, err := Select(ctx, c.spec); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// A cancelled ctx argument must abort the selection with its error.
func TestSelectContextArgument(t *testing.T) {
	ds := blobsDataset(111, 3, 20, 15)
	labeled := ds.SampleLabels(stats.NewRand(112), 0.3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Select(ctx, Spec{
		Dataset:     ds,
		Grid:        Grid{{Algorithm: MPCKMeans{}, Params: []int{2, 3, 4}}},
		Supervision: Labels(labeled),
		Options:     Options{Seed: 113, Workers: 4},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// A multi-candidate cross-method selection must run as ONE engine dispatch:
// with a Limiter of capacity 1 shared by nothing else, the peak number of
// concurrently executing clustering tasks stays 1 across all candidates,
// and — the actual point of sharing — a single Limiter acquisition stream
// serves the whole grid rather than one stream per candidate selection.
func TestCrossMethodSharesOneLimiter(t *testing.T) {
	ds := blobsDataset(114, 3, 15, 12)
	labeled := ds.SampleLabels(stats.NewRand(115), 0.3)

	var mu sync.Mutex
	var running, peak int
	probe := probeAlgorithm{
		inner: MPCKMeans{},
		before: func() {
			mu.Lock()
			running++
			if running > peak {
				peak = running
			}
			mu.Unlock()
		},
		after: func() {
			mu.Lock()
			running--
			mu.Unlock()
		},
	}
	_, err := Select(context.Background(), Spec{
		Dataset: ds,
		Grid: Grid{
			{Algorithm: probe, Params: []int{2, 3}},
			{Algorithm: probe, Params: []int{3, 4}},
		},
		Supervision: Labels(labeled),
		Options:     Options{Seed: 116, NFolds: 3, Workers: 8, Limiter: runner.NewLimiter(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak != 1 {
		t.Errorf("peak concurrent clustering tasks = %d with a 1-slot Limiter, want 1", peak)
	}
}

// probeAlgorithm wraps an Algorithm with entry/exit hooks for concurrency
// assertions.
type probeAlgorithm struct {
	inner         Algorithm
	before, after func()
}

func (p probeAlgorithm) Name() string { return p.inner.Name() }

func (p probeAlgorithm) Cluster(ds *dataset.Dataset, train *constraints.Set, param int, seed int64) ([]int, error) {
	p.before()
	defer p.after()
	return p.inner.Cluster(ds, train, param, seed)
}

// Progress must span the whole cross-method grid: one monotone (done,
// total) sequence whose total is the full cell count over every candidate,
// not a restart per candidate.
func TestCrossMethodProgressSpansGrid(t *testing.T) {
	ds := blobsDataset(117, 3, 15, 12)
	labeled := ds.SampleLabels(stats.NewRand(118), 0.3)
	var mu sync.Mutex
	var last, calls, total int
	opt := Options{Seed: 119, NFolds: 3, Workers: 4, Progress: func(done, tot int) {
		mu.Lock()
		defer mu.Unlock()
		if done <= last {
			t.Errorf("progress went backwards: %d after %d", done, last)
		}
		last = done
		calls++
		total = tot
	}}
	_, err := Select(context.Background(), Spec{
		Dataset: ds,
		Grid: Grid{
			{Algorithm: MPCKMeans{}, Params: []int{2, 3}},
			{Algorithm: FOSCOpticsDend{}, Params: []int{3, 6, 9}},
		},
		Supervision: Labels(labeled),
		Options:     opt,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := (2 + 3) * 3 // (params across candidates) × folds
	if total != want || last != want || calls != want {
		t.Errorf("progress: last=%d calls=%d total=%d, want all %d", last, calls, total, want)
	}
}

// The Validity scorer must pick winners per its index's own direction —
// Davies–Bouldin is smaller-is-better, so the cross-candidate winner is the
// minimum, not the maximum.
func TestValidityScorerWinnerDirection(t *testing.T) {
	ds := blobsDataset(120, 3, 20, 15)
	var db ValidityIndex
	for _, vi := range ValidityIndices() {
		if vi.Name == "davies-bouldin" {
			db = vi
		}
	}
	res, err := Select(context.Background(), Spec{
		Dataset: ds,
		Grid: Grid{
			{Algorithm: MPCKMeans{}, Params: []int{2, 3, 4}},
			{Algorithm: COPKMeans{}, Params: []int{2, 3, 4}},
		},
		Supervision: ConstraintSet(nil),
		Scorer:      Validity{Index: db},
		Options:     Options{Seed: 121},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sel := range res.PerCandidate {
		if sel.Best.Score < res.Winner.Best.Score {
			t.Errorf("winner has Davies–Bouldin %v but candidate %s scored %v (smaller is better)",
				res.Winner.Best.Score, sel.Algorithm, sel.Best.Score)
		}
	}
}
