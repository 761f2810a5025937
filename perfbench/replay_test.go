package main

import (
	"context"
	"testing"

	"cvcp/internal/constraints"
	"cvcp/internal/cvcp"
	"cvcp/internal/datagen"
	"cvcp/internal/dataset"
	"cvcp/internal/runner"
	"cvcp/internal/stats"
)

func smallFOSC() cvcp.Spec {
	ds := gaussians(5, 120, 4, 3)
	return cvcp.Spec{
		Dataset:     ds,
		Grid:        cvcp.Grid{{Algorithm: cvcp.FOSCOpticsDend{}, Params: []int{3, 6}}},
		Supervision: cvcp.Labels(ds.SampleLabels(stats.NewRand(6), 0.2)),
		Options:     cvcp.Options{NFolds: 3, Seed: 7, Workers: 2},
	}
}

func smallMPCK() cvcp.Spec {
	ds := gaussians(8, 90, 4, 3)
	r := stats.NewRand(9)
	return cvcp.Spec{
		Dataset:     ds,
		Grid:        cvcp.Grid{{Algorithm: cvcp.MPCKMeans{}, Params: []int{2, 3}}},
		Supervision: cvcp.ConstraintSet(constraints.Sample(r, constraints.Pool(r, ds.Y, 0.2), 0.5)),
		Options:     cvcp.Options{NFolds: 3, Seed: 10, Workers: 2},
	}
}

// TestReplayFidelity replays small selections of both algorithms: every
// replayed cell must match the engine bit for bit (replay fails
// otherwise), and the layer calls must be the ones the engine makes.
func TestReplayFidelity(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		name string
		spec cvcp.Spec
		// expected per-op layer call counts
		counts map[string]float64
	}{
		{"fosc", smallFOSC(), map[string]float64{"cvcp.cells": 6, "optics.runs": 2, "hierarchy.builds": 7,
			"fosc.extracts": 7, "mpckmeans.runs": 0}},
		{"mpck", smallMPCK(), map[string]float64{"cvcp.cells": 6, "optics.runs": 0, "fosc.extracts": 0,
			"mpckmeans.runs": 7}},
	} {
		t.Run(c.name, func(t *testing.T) {
			res, err := cvcp.Select(ctx, c.spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkShape(res, c.spec); err != nil {
				t.Fatal(err)
			}
			want := outcomeOf(res)
			o := newOpObs(newTracer(), 0)
			fresh := c.spec
			fresh.Dataset = c.spec.Dataset.Clone()
			var r replayer
			if err := r.replay(ctx, o, fresh, &want); err != nil {
				t.Fatal(err)
			}
			for k, v := range c.counts {
				if o.v[k] != v {
					t.Errorf("%s = %v, want %v", k, o.v[k], v)
				}
			}
			if o.v["constraints.train_pairs"] == 0 || o.v["trace.layer_ms"] <= 0 || o.v["trace.cvcp_ms"] <= 0 {
				t.Errorf("missing observations: %v", o.v)
			}

			// A result the replay cannot reproduce is reported.
			bad := want
			bad.Labels = append([]int(nil), want.Labels...)
			bad.Labels[0]++
			fresh.Dataset = c.spec.Dataset.Clone()
			if err := r.replay(ctx, newOpObs(newTracer(), 0), fresh, &bad); err == nil {
				t.Error("replay accepted a result that differs from its own")
			}
		})
	}
}

// TestReplayDirtyFolds checks the svc-reselect replay: with its own cell
// cache in step, a replay after a 2-row append computes only the two
// dirty folds' cells, and still matches a from-scratch selection.
func TestReplayDirtyFolds(t *testing.T) {
	ctx := context.Background()
	v := dataset.NewVersioned("g", true)
	if _, err := v.Append(datagen.GrowthBatch(3, 0, 60, 4, 3)); err != nil {
		t.Fatal(err)
	}
	spec := func() cvcp.Spec {
		ds, err := v.Snapshot(v.Version())
		if err != nil {
			t.Fatal(err)
		}
		s := foscJobSpec(ds, cvcp.StableLabels(0.5), 11)
		s.Grid[0].Params = []int{3, 6}
		s.Options.NFolds = 4
		return s
	}
	r := replayer{cache: runner.NewScoreCache(nil, 1024), seen: map[string]bool{}}
	if err := r.sync(ctx, spec()); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Append(datagen.GrowthBatch(3, 1, 2, 4, 3)); err != nil {
		t.Fatal(err)
	}
	s := spec()
	res, err := cvcp.Select(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	want := outcomeOf(res)
	o := newOpObs(newTracer(), 0)
	if err := r.replay(ctx, o, s, &want); err != nil {
		t.Fatal(err)
	}
	// 2 dirty folds × 2 MinPts cells, plus the refit.
	if o.v["fosc.extracts"] != 5 || o.v["cvcp.cells"] != 8 {
		t.Errorf("replayed %v extracts over %v cells, want 5 over 8", o.v["fosc.extracts"], o.v["cvcp.cells"])
	}
}
