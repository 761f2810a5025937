package cvcp

import (
	"context"
	"sync"
	"testing"

	"cvcp/internal/dataset"
	"cvcp/internal/runner"
)

// memCellStore is a map-backed CellStore for exercising the cache path
// without a real persistence layer. Every engine worker calls it, so a
// mutex guards the map.
type memCellStore struct {
	mu   sync.Mutex
	m    map[string]uint64
	puts int
}

func newMemCellStore() *memCellStore { return &memCellStore{m: map[string]uint64{}} }

func (s *memCellStore) GetCell(key string) (uint64, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	bits, ok := s.m[key]
	return bits, ok, nil
}

func (s *memCellStore) PutCell(key string, bits uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	s.m[key] = bits
	return nil
}

// putCount returns how many PutCell calls the store has seen.
func (s *memCellStore) putCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.puts
}

// growingBlobs builds a labeled blob dataset as a Versioned resource with
// the rows appended in batches, and returns it alongside the batch sizes.
func growingBlobs(t *testing.T, seed int64, k, m int) *dataset.Versioned {
	t.Helper()
	base := blobsDataset(seed, k, m, 15)
	v := dataset.NewVersioned("grow", true)
	if _, err := v.Append(dataset.RowBatch{Rows: base.X, Labels: base.Y}); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestStableLabelsFolds(t *testing.T) {
	ds := blobsDataset(51, 3, 20, 15)
	sup := StableLabels(0.4)
	folds, refit, err := sup.CVFolds(ds, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 5 {
		t.Fatalf("got %d folds, want 5", len(folds))
	}
	total := 0
	for f, fold := range folds {
		if fold.Data == nil {
			t.Fatalf("fold %d has no sub-dataset", f)
		}
		if fold.CacheKey == "" {
			t.Fatalf("fold %d has no cache key", f)
		}
		// The fold's sub-dataset is exactly the rows with StableFold == f.
		want := 0
		for i := 0; i < ds.N(); i++ {
			if dataset.StableFold(i, 5) == f {
				want++
			}
		}
		if fold.Data.N() != want {
			t.Fatalf("fold %d has %d rows, want %d", f, fold.Data.N(), want)
		}
		total += fold.Data.N()
		if fold.Train.Len() == 0 || fold.Test.Len() == 0 {
			t.Fatalf("fold %d train/test empty: %d/%d", f, fold.Train.Len(), fold.Test.Len())
		}
	}
	if total != ds.N() {
		t.Fatalf("folds cover %d rows, want %d", total, ds.N())
	}
	if refit == nil || refit.Len() == 0 {
		t.Fatal("empty refit supervision")
	}

	// Same inputs reproduce the same cache keys; a different seed does not.
	again, _, err := sup.CVFolds(ds, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	other, _, err := sup.CVFolds(ds, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	for f := range folds {
		if folds[f].CacheKey != again[f].CacheKey {
			t.Fatalf("fold %d cache key not deterministic", f)
		}
		if folds[f].CacheKey == other[f].CacheKey {
			t.Fatalf("fold %d cache key ignores the seed", f)
		}
	}
}

func TestStableLabelsRejects(t *testing.T) {
	ds := blobsDataset(52, 3, 20, 15)
	unlabeled := dataset.MustNew("u", ds.X, nil)
	cases := []struct {
		name string
		ds   *dataset.Dataset
		frac float64
		n    int
	}{
		{"unlabeled", unlabeled, 0.4, 5},
		{"zero frac", ds, 0, 5},
		{"frac above one", ds, 1.5, 5},
		{"one fold", ds, 0.4, 1},
		{"too many folds", ds, 0.4, ds.N()},
	}
	for _, tc := range cases {
		if _, _, err := StableLabels(tc.frac).CVFolds(tc.ds, tc.n, 7); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	if _, err := StableLabels(0.4).Full(ds); err == nil {
		t.Error("Full: no error")
	}
	if _, _, err := StableLabels(0.4).BootstrapFolds(ds, 10, 7); err == nil {
		t.Error("BootstrapFolds: no error")
	}
}

// TestStableLabelsCacheBitIdentity is the cache-correctness contract: a
// selection with a cold cache, the same selection with the warm cache, and
// an uncached selection must agree bit-for-bit — at worker counts 1 and 8 —
// and the warm run must compute zero cells.
func TestStableLabelsCacheBitIdentity(t *testing.T) {
	ds := blobsDataset(53, 3, 20, 15)
	spec := Spec{
		Dataset: ds,
		Grid: Grid{
			{Algorithm: FOSCOpticsDend{}, Params: []int{3, 6, 9}},
			{Algorithm: MPCKMeans{}, Params: []int{2, 3, 4}},
		},
		Supervision: StableLabels(0.5),
		Options:     Options{Seed: 54, NFolds: 4},
	}

	plain, err := Select(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	cells := 0
	for _, cand := range spec.Grid {
		cells += len(cand.Params) * 4
	}
	cs := newMemCellStore()
	for _, workers := range []int{1, 8} {
		cold := spec
		cold.Options.Workers = workers
		cold.Options.CellCache = runner.NewScoreCache(cs, 1024)
		got, err := Select(context.Background(), cold)
		if err != nil {
			t.Fatal(err)
		}
		for ci := range plain.PerCandidate {
			equalSelection(t, plain.PerCandidate[ci], got.PerCandidate[ci], "cached vs plain")
		}
		if workers == 1 {
			// First run: every cell computed, none reused.
			if got.Cells.Computed != cells || got.Cells.Reused != 0 {
				t.Fatalf("cold run: computed=%d reused=%d, want %d/0", got.Cells.Computed, got.Cells.Reused, cells)
			}
		} else {
			// The store is warm from the workers=1 run (each run gets a
			// fresh cache over it): everything reuses.
			if got.Cells.Computed != 0 || got.Cells.Reused != cells {
				t.Fatalf("warm run: computed=%d reused=%d, want 0/%d", got.Cells.Computed, got.Cells.Reused, cells)
			}
		}
	}
	if puts := cs.putCount(); puts != cells {
		t.Fatalf("%d cache writes, want %d", puts, cells)
	}
}

// TestStableLabelsIncrementalReuse is the tentpole contract at the engine
// layer: after appending rows to a versioned dataset, re-selecting with the
// warm cell cache is bit-identical to a from-scratch selection on the full
// data while recomputing only the dirty folds' cells.
func TestStableLabelsIncrementalReuse(t *testing.T) {
	v := growingBlobs(t, 55, 3, 20)
	v1, err := v.Snapshot(1)
	if err != nil {
		t.Fatal(err)
	}

	grid := Grid{{Algorithm: MPCKMeans{}, Params: []int{2, 3, 4}}}
	const nFolds = 5
	cs := newMemCellStore()
	run := func(ds *dataset.Dataset) *Result {
		t.Helper()
		res, err := Select(context.Background(), Spec{
			Dataset:     ds,
			Grid:        grid,
			Supervision: StableLabels(0.5),
			Options: Options{
				Seed: 56, NFolds: nFolds, Workers: 4,
				CellCache: runner.NewScoreCache(cs, 1024),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	run(v1) // warm the cache at version 1

	// Append two rows: they land in folds 0 and 1 (indices 60, 61), so
	// exactly 2 of the 5 folds are dirty.
	extra := blobsDataset(57, 3, 1, 15)
	if _, err := v.Append(dataset.RowBatch{Rows: extra.X[:2], Labels: extra.Y[:2]}); err != nil {
		t.Fatal(err)
	}
	v2, err := v.Snapshot(2)
	if err != nil {
		t.Fatal(err)
	}

	incr := run(v2)

	scratch, err := Select(context.Background(), Spec{
		Dataset:     v2,
		Grid:        grid,
		Supervision: StableLabels(0.5),
		Options:     Options{Seed: 56, NFolds: nFolds, Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for ci := range scratch.PerCandidate {
		equalSelection(t, scratch.PerCandidate[ci], incr.PerCandidate[ci], "incremental vs scratch")
	}

	cells := 3 * nFolds
	wantDirty := 3 * 2 // 3 params × 2 dirty folds
	if incr.Cells.Computed != wantDirty || incr.Cells.Reused != cells-wantDirty {
		t.Fatalf("incremental run: computed=%d reused=%d, want %d/%d",
			incr.Cells.Computed, incr.Cells.Reused, wantDirty, cells-wantDirty)
	}
}

// TestScoreRangeCounted checks the sharded accounting: counts sum to the
// range size and reflect cache reuse.
func TestScoreRangeCounted(t *testing.T) {
	ds := blobsDataset(58, 3, 20, 15)
	spec := Spec{
		Dataset:     ds,
		Grid:        Grid{{Algorithm: MPCKMeans{}, Params: []int{2, 3}}},
		Supervision: StableLabels(0.5),
		Options: Options{
			Seed: 59, NFolds: 4,
			CellCache: runner.NewScoreCache(newMemCellStore(), 1024),
		},
	}
	plan, err := PlanCells(spec)
	if err != nil {
		t.Fatal(err)
	}
	n := plan.NumCells()
	_, counts, err := plan.ScoreRangeCounted(context.Background(), 0, n, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if counts.Computed != n || counts.Reused != 0 {
		t.Fatalf("cold: %+v, want computed=%d", counts, n)
	}
	// A fresh plan over the same spec hits the shared persistent tier.
	plan2, err := PlanCells(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, counts, err = plan2.ScoreRangeCounted(context.Background(), 0, n, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if counts.Computed != 0 || counts.Reused != n {
		t.Fatalf("warm: %+v, want reused=%d", counts, n)
	}
}
