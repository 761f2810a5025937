package main

import (
	"context"
	"fmt"
	"time"

	"cvcp/internal/cvcp"
)

// libWorkload is select-fosc or select-mpck: each op is one library
// cvcp.Select call at Workers=2 on data generated for that op alone.
type libWorkload struct {
	seed int64
	spec func(seed int64, op int) cvcp.Spec
	rep  replayer
	// first is op 0's outcome, recomputed at Workers=1 by finish.
	first *outcome
}

// setUp's warmupOps warm-up ops are the whole set-up of a library
// workload: the engine has no state to build besides the process-wide
// run cache.
func (w *libWorkload) setUp(ctx context.Context, round int, cal *calibrator) error {
	for j := 0; j < warmupOps; j++ {
		cal.sample()
		spec := w.spec(setupSeed, -1-round*warmupOps-j)
		res, err := cvcp.Select(ctx, spec)
		if err != nil {
			return err
		}
		if err := checkShape(res, spec); err != nil {
			return err
		}
	}
	return nil
}

func (w *libWorkload) tearDown() {}

// settle has nothing to wait for: Select returns when its work is done.
func (w *libWorkload) settle(context.Context) error { return nil }

func (w *libWorkload) op(ctx context.Context, i int, o *opObs, counted map[string]float64) (time.Duration, error) {
	spec := w.spec(w.seed, i)
	var before registry
	var memBefore memSample
	if counted != nil {
		before, memBefore = scrape(), readMem()
	}
	start := time.Now()
	res, err := cvcp.Select(ctx, spec)
	lat := time.Since(start)
	if counted != nil {
		after, memAfter := scrape(), readMem()
		counterDeltas(counted, o, before, after)
		memDeltas(counted, memBefore, memAfter)
	}
	if err != nil {
		return lat, err
	}
	if err := checkShape(res, spec); err != nil {
		return lat, err
	}
	got := outcomeOf(res)
	if i == 0 {
		w.first = &got
	}
	if o == nil {
		return lat, nil
	}
	// The replay runs on a fresh copy of the dataset, so it misses the
	// run cache the op filled.
	spec.Dataset = spec.Dataset.Clone()
	if err := w.rep.replay(ctx, o, spec, &got); err != nil {
		return lat, err
	}
	o.add("runner.speedup_w2", o.v["trace.cvcp_ms"]/ms(lat))
	return lat, nil
}

// finish recomputes op 0 at Workers=1 on freshly generated data: the
// result must match the Workers=2 op bit for bit.
func (w *libWorkload) finish(ctx context.Context) error {
	if w.first == nil {
		return fmt.Errorf("op 0 produced no result")
	}
	spec := w.spec(w.seed, 0)
	spec.Options.Workers = 1
	res, err := cvcp.Select(ctx, spec)
	if err != nil {
		return fmt.Errorf("op 0 at Workers=1: %w", err)
	}
	if err := sameOutcome(outcomeOf(res), *w.first); err != nil {
		return fmt.Errorf("op 0 at Workers=1 differs from Workers=2: %v", err)
	}
	return nil
}
