// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per table/figure, reduced scale per iteration — the same
// code paths cmd/experiments runs at full scale), plus micro-benchmarks of
// the core components and ablation benches for the main design choices.
//
//	go test -bench=. -benchmem
package cvcp_test

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"

	root "cvcp"
	"cvcp/internal/cluster/copkmeans"
	"cvcp/internal/cluster/fosc"
	"cvcp/internal/cluster/hierarchy"
	"cvcp/internal/cluster/mpckmeans"
	"cvcp/internal/cluster/optics"
	"cvcp/internal/constraints"
	corecvcp "cvcp/internal/cvcp"
	"cvcp/internal/datagen"
	"cvcp/internal/dataset"
	"cvcp/internal/eval"
	"cvcp/internal/experiments"
	"cvcp/internal/stats"
)

// benchConfig is the reduced-scale experiment configuration used by the
// per-table/figure benchmarks: identical code paths, fewer repetitions.
func benchConfig() experiments.Config {
	return experiments.Config{
		Trials:     1,
		ALOISets:   2,
		ALOITrials: 1,
		NFolds:     3,
		Seed:       20140324,
		Out:        io.Discard,
	}
}

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	r, err := experiments.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per figure of the paper.
func BenchmarkFig5(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }

// One benchmark per table of the paper.
func BenchmarkTable1(b *testing.B)  { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)  { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)  { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)  { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B)  { benchExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B)  { benchExperiment(b, "table6") }
func BenchmarkTable7(b *testing.B)  { benchExperiment(b, "table7") }
func BenchmarkTable8(b *testing.B)  { benchExperiment(b, "table8") }
func BenchmarkTable9(b *testing.B)  { benchExperiment(b, "table9") }
func BenchmarkTable10(b *testing.B) { benchExperiment(b, "table10") }
func BenchmarkTable11(b *testing.B) { benchExperiment(b, "table11") }
func BenchmarkTable12(b *testing.B) { benchExperiment(b, "table12") }
func BenchmarkTable13(b *testing.B) { benchExperiment(b, "table13") }
func BenchmarkTable14(b *testing.B) { benchExperiment(b, "table14") }
func BenchmarkTable15(b *testing.B) { benchExperiment(b, "table15") }
func BenchmarkTable16(b *testing.B) { benchExperiment(b, "table16") }

// --- micro-benchmarks of the core components ---

func BenchmarkOPTICS(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"aloi125", 125}, {"ionosphere351", 351}} {
		ds := datagen.Ionosphere(1)
		x := ds.X[:size.n]
		b.Run(size.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := optics.Run(x, 6); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDendrogramFromReachability(b *testing.B) {
	ds := datagen.ALOI(1, 1)[0]
	ord, err := optics.Run(ds.X, 6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hierarchy.FromReachability(ord); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFOSCExtract(b *testing.B) {
	ds := datagen.ALOI(1, 1)[0]
	ord, err := optics.Run(ds.X, 6)
	if err != nil {
		b.Fatal(err)
	}
	dend, err := hierarchy.FromReachability(ord)
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRand(2)
	cons := constraints.FromLabels(ds.SampleLabels(r, 0.2), ds.Y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fosc.Extract(dend, cons, fosc.Config{MinClusterSize: 6}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMPCKMeans(b *testing.B) {
	ds := datagen.ALOI(1, 1)[0]
	r := stats.NewRand(2)
	cons := constraints.FromLabels(ds.SampleLabels(r, 0.2), ds.Y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mpckmeans.Run(ds.X, cons, mpckmeans.Config{K: 5, Seed: int64(i), LearnMetric: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransitiveClosure(b *testing.B) {
	ds := datagen.Ecoli(1)
	r := stats.NewRand(2)
	given := constraints.Sample(r, constraints.Pool(r, ds.Y, 0.15), 0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := constraints.Closure(given); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCVCPSelectFOSC(b *testing.B) {
	ds := datagen.ALOI(1, 1)[0]
	labeled := ds.SampleLabels(stats.NewRand(2), 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := root.Select(context.Background(), root.Spec{
			Dataset:     ds,
			Grid:        root.Grid{{Algorithm: root.FOSCOpticsDend{}, Params: root.DefaultMinPtsRange}},
			Supervision: root.Labels(labeled),
			Options:     root.Options{Seed: int64(i), NFolds: 5},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCVCPSelectMPCK(b *testing.B) {
	ds := datagen.ALOI(1, 1)[0]
	labeled := ds.SampleLabels(stats.NewRand(2), 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := root.Select(context.Background(), root.Spec{
			Dataset:     ds,
			Grid:        root.Grid{{Algorithm: root.MPCKMeans{}, Params: root.KRange(2, 9)}},
			Supervision: root.Labels(labeled),
			Options:     root.Options{Seed: int64(i), NFolds: 5},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCOPKMeans(b *testing.B) {
	ds := datagen.ALOI(1, 1)[0]
	r := stats.NewRand(2)
	cons := constraints.FromLabels(ds.SampleLabels(r, 0.2), ds.Y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := copkmeans.Run(ds.X, cons, copkmeans.Config{K: 5, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBootstrapSelect(b *testing.B) {
	ds := datagen.ALOI(1, 1)[0]
	labeled := ds.SampleLabels(stats.NewRand(2), 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := corecvcp.Select(context.Background(), corecvcp.Spec{
			Dataset:     ds,
			Grid:        corecvcp.Grid{{Algorithm: corecvcp.MPCKMeans{}, Params: []int{3, 5, 7}}},
			Supervision: corecvcp.Labels(labeled),
			Scorer:      corecvcp.Bootstrap{Rounds: 5},
			Options:     corecvcp.Options{Seed: int64(i)},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benches for the design choices ---

// BenchmarkAblationFoldCount compares CVCP cost across fold counts
// (n ∈ {2,5,10}): fold count multiplies the clustering work per candidate.
func BenchmarkAblationFoldCount(b *testing.B) {
	ds := datagen.ALOI(1, 1)[0]
	labeled := ds.SampleLabels(stats.NewRand(2), 0.2)
	for _, folds := range []int{2, 5, 10} {
		b.Run(fmt.Sprintf("folds%d", folds), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := root.Select(context.Background(), root.Spec{
					Dataset:     ds,
					Grid:        root.Grid{{Algorithm: root.FOSCOpticsDend{}, Params: root.DefaultMinPtsRange}},
					Supervision: root.Labels(labeled),
					Options:     root.Options{Seed: int64(i), NFolds: folds},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMetricLearning compares MPCK-Means with and without
// per-cluster metric learning (PCK-Means): the metric update dominates at
// high dimension.
func BenchmarkAblationMetricLearning(b *testing.B) {
	ds := datagen.ALOI(1, 1)[0]
	cons := constraints.FromLabels(ds.SampleLabels(stats.NewRand(2), 0.2), ds.Y)
	for _, learn := range []bool{false, true} {
		name := "pck"
		if learn {
			name = "mpck"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mpckmeans.Run(ds.X, cons, mpckmeans.Config{
					K: 5, Seed: int64(i), LearnMetric: learn,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationClosureFolds compares the paper's leakage-free constraint
// fold construction against the naive edge split it warns about: correctness
// costs one transitive closure.
func BenchmarkAblationClosureFolds(b *testing.B) {
	ds := datagen.Ecoli(1)
	r := stats.NewRand(2)
	given := constraints.Sample(r, constraints.Pool(r, ds.Y, 0.15), 0.5)
	b.Run("closure", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := constraints.SplitConstraints(stats.NewRand(int64(i)), given, 5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive-leaky", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := constraints.NaiveSplitConstraints(stats.NewRand(int64(i)), given, 5); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// legacyPerParamSelect replicates the pre-engine concurrency scheme —
// whole parameters fan out, the folds within a parameter run serially —
// on exactly the folds, seeds and scoring of a one-candidate Select over
// Labels supervision. It is the baseline BenchmarkEngineFoldParamGrid
// measures the fold×parameter engine against; the library itself no
// longer contains this path.
func legacyPerParamSelect(alg corecvcp.Algorithm, ds *dataset.Dataset, labeledIdx, params []int, nfolds int, seed int64) (*corecvcp.Selection, error) {
	n := constraints.AdaptFolds(nfolds, len(labeledIdx))
	folds, err := constraints.SplitLabels(stats.NewRand(seed), labeledIdx, n)
	if err != nil {
		return nil, err
	}
	type cvFold struct{ train, test *constraints.Set }
	fs := make([]cvFold, len(folds))
	for i, f := range folds {
		fs[i] = cvFold{
			train: constraints.FromLabels(f.TrainIdx, ds.Y),
			test:  constraints.FromLabels(f.TestIdx, ds.Y),
		}
	}
	scores := make([]corecvcp.ParamScore, len(params))
	errs := make([]error, len(params))
	var wg sync.WaitGroup
	for pi := range params {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			ps := corecvcp.ParamScore{Param: params[pi], FoldScores: make([]float64, len(fs))}
			for fi, f := range fs {
				s := stats.SplitSeed(seed, pi*len(fs)+fi+1)
				labels, err := alg.Cluster(ds, f.train, params[pi], s)
				if err != nil {
					errs[pi] = err
					return
				}
				ps.FoldScores[fi] = eval.ConstraintF(labels, f.test)
			}
			ps.Score = stats.Mean(ps.FoldScores)
			scores[pi] = ps
		}(pi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	best := scores[0]
	for _, ps := range scores[1:] {
		if ps.Score > best.Score {
			best = ps
		}
	}
	full := constraints.FromLabels(labeledIdx, ds.Y)
	finalLabels, err := alg.Cluster(ds, full, best.Param, stats.SplitSeed(seed, 0))
	if err != nil {
		return nil, err
	}
	return &corecvcp.Selection{Algorithm: alg.Name(), Best: best, Scores: scores, FinalLabels: finalLabels}, nil
}

// engineSelect is the engine-side selection BenchmarkEngineFoldParamGrid
// measures: MPCK-Means parameter selection through the unified Select core.
func engineSelect(ds *dataset.Dataset, labeled, params []int, opt corecvcp.Options) (*corecvcp.Selection, error) {
	res, err := corecvcp.Select(context.Background(), corecvcp.Spec{
		Dataset:     ds,
		Grid:        corecvcp.Grid{{Algorithm: corecvcp.MPCKMeans{}, Params: params}},
		Supervision: corecvcp.Labels(labeled),
		Options:     opt,
	})
	if err != nil {
		return nil, err
	}
	return res.PerCandidate[0], nil
}

// BenchmarkEngineFoldParamGrid compares the old per-parameter fan-out with
// the fold×parameter engine on a grid shaped to expose the difference: two
// candidate parameters of very different cost and eight folds. The legacy
// path can use at most two cores and is gated by the expensive parameter's
// serial fold loop; the engine schedules all sixteen cells, so on a host
// with ≥4 cores it finishes the same (bit-identical — verified before
// timing) selection well over 1.5× faster.
func BenchmarkEngineFoldParamGrid(b *testing.B) {
	ds := datagen.ALOI(1, 1)[0]
	labeled := ds.SampleLabels(stats.NewRand(2), 0.3)
	params := []int{3, 9}
	const nfolds = 8
	const seed = 42

	legacy, err := legacyPerParamSelect(corecvcp.MPCKMeans{}, ds, labeled, params, nfolds, seed)
	if err != nil {
		b.Fatal(err)
	}
	engine, err := engineSelect(ds, labeled, params, corecvcp.Options{Seed: seed, NFolds: nfolds, Workers: -1})
	if err != nil {
		b.Fatal(err)
	}
	if legacy.Best.Param != engine.Best.Param || legacy.Best.Score != engine.Best.Score {
		b.Fatalf("selection differs: legacy %+v, engine %+v", legacy.Best, engine.Best)
	}
	for i := range legacy.Scores {
		if legacy.Scores[i].Score != engine.Scores[i].Score {
			b.Fatalf("param %d: legacy score %v, engine score %v",
				legacy.Scores[i].Param, legacy.Scores[i].Score, engine.Scores[i].Score)
		}
		for j := range legacy.Scores[i].FoldScores {
			if legacy.Scores[i].FoldScores[j] != engine.Scores[i].FoldScores[j] {
				b.Fatalf("param %d fold %d: scores differ", legacy.Scores[i].Param, j)
			}
		}
	}
	for i := range legacy.FinalLabels {
		if legacy.FinalLabels[i] != engine.FinalLabels[i] {
			b.Fatal("final labels differ")
		}
	}

	b.Run("perparam-legacy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := legacyPerParamSelect(corecvcp.MPCKMeans{}, ds, labeled, params, nfolds, seed); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("foldparam-engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engineSelect(ds, labeled, params, corecvcp.Options{Seed: seed, NFolds: nfolds, Workers: -1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineWorkers shows how the fold×parameter grid scales with the
// worker bound on a wider grid (8 parameters × 5 folds of FOSC-OPTICSDend,
// which also exercises the shared OPTICS/distance cache under concurrency).
func BenchmarkEngineWorkers(b *testing.B) {
	ds := datagen.ALOI(1, 1)[0]
	labeled := ds.SampleLabels(stats.NewRand(2), 0.2)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := root.Select(context.Background(), root.Spec{
					Dataset:     ds,
					Grid:        root.Grid{{Algorithm: root.FOSCOpticsDend{}, Params: root.DefaultMinPtsRange}},
					Supervision: root.Labels(labeled),
					Options:     root.Options{Seed: 7, NFolds: 5, Workers: workers},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationParallelSweep compares the serial and parallel parameter
// sweeps (on one core they should be comparable; the parallel path exists
// for multi-core hosts).
func BenchmarkAblationParallelSweep(b *testing.B) {
	ds := datagen.ALOI(1, 1)[0]
	labeled := ds.SampleLabels(stats.NewRand(2), 0.2)
	for _, workers := range []int{1, -1} {
		name := "serial"
		if workers < 0 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := corecvcp.Select(context.Background(), corecvcp.Spec{
					Dataset:     ds,
					Grid:        corecvcp.Grid{{Algorithm: corecvcp.MPCKMeans{}, Params: []int{2, 4, 6, 8}}},
					Supervision: corecvcp.Labels(labeled),
					Options:     corecvcp.Options{Seed: int64(i), NFolds: 3, Workers: workers},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// crossMethodGrid is the candidate grid of BenchmarkCrossMethodGrid: three
// clustering paradigms with their own parameter ranges on one dataset.
func crossMethodGrid() corecvcp.Grid {
	return corecvcp.Grid{
		{Algorithm: corecvcp.FOSCOpticsDend{}, Params: []int{3, 6, 9, 12}},
		{Algorithm: corecvcp.MPCKMeans{}, Params: []int{3, 5, 7}},
		{Algorithm: corecvcp.COPKMeans{}, Params: []int{3, 5, 7}},
	}
}

// legacySequentialCrossMethod replicates the pre-redesign cross-method
// selection: one full, independent selection per candidate, run back to
// back — each candidate gets its own engine run, so the worker pool drains
// to a barrier at every candidate boundary and no cells of different
// candidates ever overlap. The unified grid removed exactly this structure;
// the library itself no longer contains it.
func legacySequentialCrossMethod(ds *dataset.Dataset, grid corecvcp.Grid, labeled []int, opt corecvcp.Options) (*corecvcp.Result, error) {
	out := &corecvcp.Result{}
	for _, cand := range grid {
		res, err := corecvcp.Select(context.Background(), corecvcp.Spec{
			Dataset:     ds,
			Grid:        corecvcp.Grid{cand},
			Supervision: corecvcp.Labels(labeled),
			Options:     opt,
		})
		if err != nil {
			return nil, err
		}
		sel := res.PerCandidate[0]
		out.PerCandidate = append(out.PerCandidate, sel)
		if out.Winner == nil || sel.Best.Score > out.Winner.Best.Score {
			out.Winner = sel
		}
	}
	return out, nil
}

// BenchmarkCrossMethodGrid measures the tentpole of the unified Select API:
// cross-method selection as ONE shared (algorithm, parameter, fold) engine
// run — one worker pool, one Limiter, one run cache across all candidates —
// against the legacy sequential per-candidate loop. Bit-identity of the two
// is asserted before timing: same winners, same per-fold scores to the last
// bit, same final labelings.
func BenchmarkCrossMethodGrid(b *testing.B) {
	ds := datagen.ALOI(1, 1)[0]
	labeled := ds.SampleLabels(stats.NewRand(2), 0.3)
	opt := corecvcp.Options{Seed: 42, NFolds: 5, Workers: -1}
	grid := crossMethodGrid()

	legacy, err := legacySequentialCrossMethod(ds, grid, labeled, opt)
	if err != nil {
		b.Fatal(err)
	}
	unified, err := corecvcp.Select(context.Background(), corecvcp.Spec{
		Dataset:     ds,
		Grid:        grid,
		Supervision: corecvcp.Labels(labeled),
		Options:     opt,
	})
	if err != nil {
		b.Fatal(err)
	}
	if len(legacy.PerCandidate) != len(unified.PerCandidate) {
		b.Fatalf("candidate counts differ: %d vs %d", len(legacy.PerCandidate), len(unified.PerCandidate))
	}
	for ci := range legacy.PerCandidate {
		l, u := legacy.PerCandidate[ci], unified.PerCandidate[ci]
		if l.Algorithm != u.Algorithm || l.Best.Param != u.Best.Param || l.Best.Score != u.Best.Score {
			b.Fatalf("candidate %d: legacy (%s, %d, %v) vs unified (%s, %d, %v)",
				ci, l.Algorithm, l.Best.Param, l.Best.Score, u.Algorithm, u.Best.Param, u.Best.Score)
		}
		for pi := range l.Scores {
			for fi := range l.Scores[pi].FoldScores {
				if l.Scores[pi].FoldScores[fi] != u.Scores[pi].FoldScores[fi] {
					b.Fatalf("candidate %d param %d fold %d: scores differ", ci, l.Scores[pi].Param, fi)
				}
			}
		}
		for i := range l.FinalLabels {
			if l.FinalLabels[i] != u.FinalLabels[i] {
				b.Fatalf("candidate %d: final labels differ", ci)
			}
		}
	}
	if legacy.Winner.Algorithm != unified.Winner.Algorithm {
		b.Fatalf("winners differ: %s vs %s", legacy.Winner.Algorithm, unified.Winner.Algorithm)
	}

	b.Run("percandidate-legacy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := legacySequentialCrossMethod(ds, grid, labeled, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sharedgrid-unified", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := corecvcp.Select(context.Background(), corecvcp.Spec{
				Dataset:     ds,
				Grid:        grid,
				Supervision: corecvcp.Labels(labeled),
				Options:     opt,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
