package cvcp

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"cvcp/internal/constraints"
	"cvcp/internal/stats"
)

// equalSelection asserts two selections agree bit-for-bit on everything the
// engine computes: parameters, per-fold scores, aggregate scores, the chosen
// parameter, and the final labeling.
func equalSelection(t *testing.T, a, b *Selection, what string) {
	t.Helper()
	if a.Algorithm != b.Algorithm {
		t.Errorf("%s: algorithm %q vs %q", what, a.Algorithm, b.Algorithm)
	}
	if a.Best.Param != b.Best.Param || a.Best.Score != b.Best.Score {
		t.Errorf("%s: best (%d, %v) vs (%d, %v)", what, a.Best.Param, a.Best.Score, b.Best.Param, b.Best.Score)
	}
	if !reflect.DeepEqual(a.Scores, b.Scores) {
		t.Errorf("%s: scores differ:\n%v\n%v", what, a.Scores, b.Scores)
	}
	if !reflect.DeepEqual(a.FinalLabels, b.FinalLabels) {
		t.Errorf("%s: final labels differ", what)
	}
}

// TestWorkersGolden is the determinism golden test: for both algorithms and
// both scenarios, a serial run and an 8-worker run of the fold×parameter
// engine must produce identical selections — same candidate scores to the
// last bit, same winner, same final labeling.
func TestWorkersGolden(t *testing.T) {
	ds := blobsDataset(21, 3, 20, 15)
	labeled := ds.SampleLabels(stats.NewRand(22), 0.3)
	cons := constraints.FromLabels(labeled, ds.Y)

	algs := []struct {
		name   string
		alg    Algorithm
		params []int
	}{
		{"fosc", FOSCOpticsDend{}, []int{3, 6, 9, 12}},
		{"mpck", MPCKMeans{}, []int{2, 3, 4, 5}},
	}
	for _, a := range algs {
		for _, sup := range []Supervision{Labels(labeled), ConstraintSet(cons)} {
			t.Run(a.name+"/"+sup.Kind(), func(t *testing.T) {
				spec := Spec{
					Dataset:     ds,
					Grid:        Grid{{Algorithm: a.alg, Params: a.params}},
					Supervision: sup,
					Options:     Options{Seed: 23, Workers: 1},
				}
				one := selectWinner(t, spec)
				spec.Options.Workers = 8
				equalSelection(t, one, selectWinner(t, spec), "workers 1 vs 8")
			})
		}
	}
}

// The engine must also be invariant to odd worker counts that do not divide
// the grid.
func TestWorkerCountInvariance(t *testing.T) {
	ds := blobsDataset(24, 3, 15, 12)
	labeled := ds.SampleLabels(stats.NewRand(25), 0.3)
	params := []int{2, 3, 4, 5, 6}
	spec := Spec{
		Dataset:     ds,
		Grid:        Grid{{Algorithm: MPCKMeans{}, Params: params}},
		Supervision: Labels(labeled),
		Options:     Options{Seed: 26},
	}
	base := selectWinner(t, spec)
	for _, w := range []int{3, 7, 64, -1} {
		spec.Options.Workers = w
		equalSelection(t, base, selectWinner(t, spec), fmt.Sprintf("workers=%d", w))
	}
}

func TestSelectCancellation(t *testing.T) {
	ds := blobsDataset(27, 3, 20, 15)
	labeled := ds.SampleLabels(stats.NewRand(28), 0.3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Select(ctx, Spec{
		Dataset:     ds,
		Grid:        Grid{{Algorithm: MPCKMeans{}, Params: []int{2, 3, 4}}},
		Supervision: Labels(labeled),
		Options:     Options{Seed: 29, Workers: 4},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSelectCancelledMidGrid(t *testing.T) {
	ds := blobsDataset(30, 3, 20, 15)
	labeled := ds.SampleLabels(stats.NewRand(31), 0.3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel from the progress callback: the selection must abandon the
	// remaining grid and report the cancellation.
	opt := Options{Seed: 32, Workers: 2, Progress: func(done, total int) {
		if done == 2 {
			cancel()
		}
	}}
	_, err := Select(ctx, Spec{
		Dataset:     ds,
		Grid:        Grid{{Algorithm: MPCKMeans{}, Params: []int{2, 3, 4, 5, 6, 7}}},
		Supervision: Labels(labeled),
		Options:     opt,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSelectProgress(t *testing.T) {
	ds := blobsDataset(33, 3, 15, 12)
	labeled := ds.SampleLabels(stats.NewRand(34), 0.3)
	params := []int{2, 3, 4}
	var mu sync.Mutex
	var last, calls, total int
	opt := Options{Seed: 35, NFolds: 3, Workers: 4, Progress: func(done, tot int) {
		mu.Lock()
		defer mu.Unlock()
		last = done
		calls++
		total = tot
	}}
	selectWinner(t, Spec{
		Dataset:     ds,
		Grid:        Grid{{Algorithm: MPCKMeans{}, Params: params}},
		Supervision: Labels(labeled),
		Options:     opt,
	})
	if want := len(params) * 3; total != want || last != want || calls != want {
		t.Errorf("progress: last=%d calls=%d total=%d, want all %d", last, calls, total, want)
	}
}

// TestRunCacheHammer drives the shared OPTICS/distance caches from many
// goroutines at once (run under -race in CI): every caller must observe the
// same memoized ordering and matrix for a given (dataset, MinPts).
func TestRunCacheHammer(t *testing.T) {
	runCache.Flush()
	ds := blobsDataset(36, 3, 15, 12)
	minPts := []int{3, 6, 9, 12}
	var wg sync.WaitGroup
	results := make([]map[int]any, 16)
	matrices := make([]any, 16)
	for g := range results {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := map[int]any{}
			for i := 0; i < 50; i++ {
				mp := minPts[i%len(minPts)]
				res, err := opticsRun(ds, mp, false, 0)
				if err != nil {
					t.Error(err)
					return
				}
				if prev, ok := got[mp]; ok && prev != res {
					t.Errorf("goroutine %d: two distinct orderings for MinPts=%d", g, mp)
					return
				}
				got[mp] = res
			}
			matrices[g] = distMatrix(ds, false)
			results[g] = got
		}()
	}
	wg.Wait()
	for g := 1; g < len(results); g++ {
		if matrices[g] != matrices[0] {
			t.Errorf("goroutine %d observed a different distance matrix", g)
		}
		for mp, res := range results[g] {
			if res != results[0][mp] {
				t.Errorf("goroutine %d observed a different ordering for MinPts=%d", g, mp)
			}
		}
	}
}

// Concurrent full selections over distinct datasets must not interfere
// through the shared cache (run under -race in CI).
func TestConcurrentSelectionsAcrossDatasets(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ds := blobsDataset(int64(40+i), 3, 15, 12)
			labeled := ds.SampleLabels(stats.NewRand(int64(50+i)), 0.3)
			res, err := Select(context.Background(), Spec{
				Dataset:     ds,
				Grid:        Grid{{Algorithm: FOSCOpticsDend{}, Params: []int{3, 6, 9}}},
				Supervision: Labels(labeled),
				Options:     Options{Seed: int64(60 + i), Workers: 2},
			})
			if err != nil {
				t.Error(err)
				return
			}
			if len(res.Winner.FinalLabels) != ds.N() {
				t.Errorf("dataset %d: %d final labels, want %d", i, len(res.Winner.FinalLabels), ds.N())
			}
		}()
	}
	wg.Wait()
}
