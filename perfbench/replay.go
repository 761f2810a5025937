package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"cvcp/internal/cluster/fosc"
	"cvcp/internal/cluster/hierarchy"
	"cvcp/internal/cluster/mpckmeans"
	"cvcp/internal/cluster/optics"
	"cvcp/internal/constraints"
	"cvcp/internal/cvcp"
	"cvcp/internal/dataset"
	"cvcp/internal/eval"
	"cvcp/internal/linalg"
	"cvcp/internal/runner"
	"cvcp/internal/stats"
)

// outcome is the part of a selection the benchmark compares bit for bit:
// the winner's parameter, every fold score's bits and the final labels.
type outcome struct {
	Best   int
	Scores [][]uint64 // [parameter][fold]
	Labels []int
}

func outcomeOf(res *cvcp.Result) outcome {
	w := res.Winner
	o := outcome{Best: w.Best.Param, Labels: w.FinalLabels}
	for _, ps := range w.Scores {
		o.Scores = append(o.Scores, floatBits(ps.FoldScores))
	}
	return o
}

func floatBits(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

// sameOutcome returns nil when a and b are bit-identical, else what differs.
func sameOutcome(a, b outcome) error {
	if a.Best != b.Best {
		return fmt.Errorf("best parameter %d, want %d", a.Best, b.Best)
	}
	if len(a.Scores) != len(b.Scores) {
		return fmt.Errorf("%d parameters scored, want %d", len(a.Scores), len(b.Scores))
	}
	for p := range a.Scores {
		if len(a.Scores[p]) != len(b.Scores[p]) {
			return fmt.Errorf("parameter %d: %d fold scores, want %d", p, len(a.Scores[p]), len(b.Scores[p]))
		}
		for f := range a.Scores[p] {
			if a.Scores[p][f] != b.Scores[p][f] {
				return fmt.Errorf("parameter %d fold %d: score bits %x, want %x", p, f, a.Scores[p][f], b.Scores[p][f])
			}
		}
	}
	if len(a.Labels) != len(b.Labels) {
		return fmt.Errorf("%d labels, want %d", len(a.Labels), len(b.Labels))
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			return fmt.Errorf("label of object %d is %d, want %d", i, a.Labels[i], b.Labels[i])
		}
	}
	return nil
}

// checkShape is every select op's output check: one candidate whose best
// parameter is in the grid, fold scores in [0, 1], one label per object.
func checkShape(res *cvcp.Result, spec cvcp.Spec) error {
	if res == nil || res.Winner == nil || len(res.PerCandidate) != len(spec.Grid) {
		return fmt.Errorf("no winner")
	}
	w := res.Winner
	inGrid := false
	for _, p := range spec.Grid[0].Params {
		inGrid = inGrid || p == w.Best.Param
	}
	if !inGrid {
		return fmt.Errorf("best parameter %d outside the grid", w.Best.Param)
	}
	if len(w.Scores) != len(spec.Grid[0].Params) {
		return fmt.Errorf("%d parameters scored, want %d", len(w.Scores), len(spec.Grid[0].Params))
	}
	for _, ps := range w.Scores {
		if len(ps.FoldScores) == 0 {
			return fmt.Errorf("parameter %d has no fold scores", ps.Param)
		}
		for _, s := range ps.FoldScores {
			if !(s >= 0 && s <= 1) {
				return fmt.Errorf("parameter %d: fold score %v outside [0, 1]", ps.Param, s)
			}
		}
	}
	if len(w.FinalLabels) != spec.Dataset.N() {
		return fmt.Errorf("%d final labels for %d objects", len(w.FinalLabels), spec.Dataset.N())
	}
	return nil
}

// replayer times one op's selection again at Workers=1 through the cvcp
// layer's exported stages (PlanCells → ScoreRange → Finalize), then the
// layer calls FOSCOpticsDend.Cluster and MPCKMeans.Cluster make for the
// cells that op computed, in the engine's cell order, and checks every
// replayed cell score and the refit against the stage results bit for
// bit — so the replay provably times the same work.
type replayer struct {
	// cache is the replay's own cell cache, for workloads whose service
	// reuses cells (svc-reselect): it makes the Workers=1 stage replay
	// compute the same cells the service computed. seen holds the fold
	// keys whose cells it already holds; a fold not in it is dirty.
	cache *runner.ScoreCache
	seen  map[string]bool
}

// replay records spans under o.root and observations in o. spec.Dataset
// must be a freshly allocated copy of the op's dataset: the run cache is
// keyed by the dataset pointer, and a reused one would serve the replay
// from the op's cached OPTICS runs. want, when non-nil, is the op's own
// result.
func (r *replayer) replay(ctx context.Context, o *opObs, spec cvcp.Spec, want *outcome) error {
	spec.Options.Workers = 1
	spec.Options.Limiter = nil
	spec.Options.Progress = nil
	spec.Options.CellCache = r.cache

	var (
		plan   *cvcp.CellPlan
		scores []float64
		counts cvcp.CellCounts
		res    *cvcp.Result
		err    error
	)
	stages := o.tr.reserve()
	stagesStart := time.Now()
	o.timed("cvcp.plan_ms", stages, func() { plan, err = cvcp.PlanCells(spec) })
	if err != nil {
		return fmt.Errorf("replay plan: %w", err)
	}
	o.timed("cvcp.score_ms", stages, func() {
		scores, counts, err = plan.ScoreRangeCounted(ctx, 0, plan.NumCells(), 1, nil)
	})
	if err != nil {
		return fmt.Errorf("replay score: %w", err)
	}
	o.timed("cvcp.finalize_ms", stages, func() { res, err = plan.Finalize(ctx, scores, 1, nil) })
	if err != nil {
		return fmt.Errorf("replay finalize: %w", err)
	}
	o.tr.finish(stages, o.op, o.root, "cvcp.replay", stagesStart, time.Now())
	o.add("cvcp.cells", float64(plan.NumCells()))
	o.add("trace.cvcp_ms", o.v["cvcp.plan_ms"]+o.v["cvcp.score_ms"]+o.v["cvcp.finalize_ms"])
	got := outcomeOf(res)
	if want != nil {
		if err := sameOutcome(got, *want); err != nil {
			return fmt.Errorf("Workers=1 replay differs from the op: %v", err)
		}
	}

	layers := o.tr.reserve()
	layersStart := time.Now()
	computed, err := r.layerCalls(o, layers, spec, scores, res)
	if err != nil {
		return err
	}
	o.tr.finish(layers, o.op, o.root, "layers.replay", layersStart, time.Now())
	if computed != counts.Computed {
		return fmt.Errorf("layer replay computed %d cells, the stage replay %d", computed, counts.Computed)
	}
	return nil
}

// sync brings the replay's cell cache up to date with an op it did not
// replay, so the next replay computes only that op's dirty cells.
func (r *replayer) sync(ctx context.Context, spec cvcp.Spec) error {
	spec.Options.CellCache = r.cache
	plan, err := cvcp.PlanCells(spec)
	if err != nil {
		return err
	}
	if _, err := plan.ScoreRange(ctx, 0, plan.NumCells(), libWorkers, nil); err != nil {
		return err
	}
	folds, _, err := cvcp.CrossValidation{}.Folds(spec.Dataset, spec.Supervision, spec.Options)
	if err != nil {
		return err
	}
	for _, f := range folds {
		r.seen[f.CacheKey] = true
	}
	return nil
}

// layerKeys are the observation keys whose sum is the replayed layer
// time trace.coverage divides by the stage time.
var layerKeys = []string{"cvcp.folds_ms", "linalg.matrix_ms", "optics.run_ms", "hierarchy.build_ms",
	"fosc.extract_ms", "mpckmeans.run_ms", "eval.score_ms"}

// layerCalls replays the layer calls behind the cells the stage replay
// computed plus the refit, checking each against scores and res. It
// returns how many cells it replayed.
func (r *replayer) layerCalls(o *opObs, parent int64, spec cvcp.Spec, scores []float64, res *cvcp.Result) (int, error) {
	var (
		folds []cvcp.Fold
		full  *constraints.Set
		err   error
	)
	o.timed("cvcp.folds_ms", parent, func() {
		folds, full, err = cvcp.CrossValidation{}.Folds(spec.Dataset, spec.Supervision, spec.Options)
	})
	if err != nil {
		return 0, fmt.Errorf("replay folds: %w", err)
	}
	dirty := make([]bool, len(folds))
	for fi, f := range folds {
		o.add("constraints.train_pairs", float64(f.Train.Len()))
		o.add("constraints.test_pairs", float64(f.Test.Len()))
		dirty[fi] = r.seen == nil || f.CacheKey == "" || !r.seen[f.CacheKey]
	}

	// Matrices and OPTICS orderings are computed once per dataset and
	// (dataset, MinPts), as the engine's single-flight run cache does.
	matrices := map[*dataset.Dataset]*linalg.DistMatrix{}
	orderings := map[*dataset.Dataset]map[int]*optics.Result{}
	ordering := func(ds *dataset.Dataset, minPts int) (*optics.Result, error) {
		dm, ok := matrices[ds]
		if !ok {
			o.timed("linalg.matrix_ms", parent, func() { dm = linalg.NewDistMatrixCondensed(ds.X) })
			matrices[ds] = dm
			n := float64(ds.N())
			o.add("linalg.pairs", n*(n-1)/2)
			orderings[ds] = map[int]*optics.Result{}
		}
		ord, ok := orderings[ds][minPts]
		if ok {
			return ord, nil
		}
		var err error
		o.timed("optics.run_ms", parent, func() { ord, err = optics.RunWithMatrix(dm, minPts) })
		o.add("optics.runs", 1)
		orderings[ds][minPts] = ord
		return ord, err
	}
	foscLabels := func(alg cvcp.FOSCOpticsDend, ds *dataset.Dataset, train *constraints.Set, minPts int) ([]int, error) {
		ord, err := ordering(ds, minPts)
		if err != nil {
			return nil, err
		}
		var dend *hierarchy.Dendrogram
		o.timed("hierarchy.build_ms", parent, func() { dend, err = hierarchy.FromReachability(ord) })
		o.add("hierarchy.builds", 1)
		if err != nil {
			return nil, err
		}
		mcs := alg.MinClusterSize
		if mcs == 0 {
			mcs = minPts
		}
		var ext *fosc.Result
		o.timed("fosc.extract_ms", parent, func() { ext, err = fosc.Extract(dend, train, fosc.Config{MinClusterSize: mcs}) })
		o.add("fosc.extracts", 1)
		if err != nil {
			return nil, err
		}
		return ext.Labels, nil
	}
	mpckLabels := func(alg cvcp.MPCKMeans, ds *dataset.Dataset, train *constraints.Set, k int, seed int64) ([]int, error) {
		var (
			res *mpckmeans.Result
			err error
		)
		o.timed("mpckmeans.run_ms", parent, func() {
			res, err = mpckmeans.Run(ds.X, train, mpckmeans.Config{K: k, Seed: seed, Weight: alg.Weight,
				LearnMetric: !alg.DisableMetric, MaxIter: alg.MaxIter})
		})
		o.add("mpckmeans.runs", 1)
		if err != nil {
			return nil, err
		}
		o.add("mpckmeans.iters", float64(res.Iters))
		return res.Labels, nil
	}
	cluster := func(a cvcp.Algorithm, ds *dataset.Dataset, train *constraints.Set, param int, seed int64) ([]int, error) {
		switch alg := a.(type) {
		case cvcp.FOSCOpticsDend:
			if alg.Matrix32 || alg.Eps != 0 {
				return nil, fmt.Errorf("replay covers the dense float64 FOSC path only")
			}
			return foscLabels(alg, ds, train, param)
		case cvcp.MPCKMeans:
			return mpckLabels(alg, ds, train, param, seed)
		}
		return nil, fmt.Errorf("replay does not cover algorithm %s", a.Name())
	}

	c, computed := 0, 0
	for _, cand := range spec.Grid {
		for pi, param := range cand.Params {
			for fi, f := range folds {
				cell := c
				c++
				if !dirty[fi] {
					continue
				}
				data := spec.Dataset
				if f.Data != nil {
					data = f.Data
				}
				labels, err := cluster(cand.Algorithm, data, f.Train, param, stats.SplitSeed(spec.Options.Seed, pi*len(folds)+fi+1))
				if err != nil {
					return 0, fmt.Errorf("replay cell %d: %w", cell, err)
				}
				var score float64
				o.timed("eval.score_ms", parent, func() { score = eval.ConstraintF(labels, f.Test) })
				if math.Float64bits(score) != math.Float64bits(scores[cell]) {
					return 0, fmt.Errorf("replayed cell %d scores %v, ScoreRange gave %v", cell, score, scores[cell])
				}
				computed++
			}
		}
	}
	for ci, cand := range spec.Grid {
		sel := res.PerCandidate[ci]
		labels, err := cluster(cand.Algorithm, spec.Dataset, full, sel.Best.Param, stats.SplitSeed(spec.Options.Seed, 0))
		if err != nil {
			return 0, fmt.Errorf("replay refit: %w", err)
		}
		if err := sameOutcome(outcome{Labels: labels}, outcome{Labels: sel.FinalLabels}); err != nil {
			return 0, fmt.Errorf("replayed refit differs from Finalize: %v", err)
		}
	}
	if r.seen != nil {
		for _, f := range folds {
			r.seen[f.CacheKey] = true
		}
	}
	var layerMS float64
	for _, k := range layerKeys {
		layerMS += o.v[k]
	}
	o.add("trace.layer_ms", layerMS)
	return computed, nil
}
