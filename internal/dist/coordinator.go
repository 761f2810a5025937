package dist

import (
	"context"
	"fmt"
	"time"

	"cvcp/internal/cvcp"
	"cvcp/internal/store"
)

// Default tuning. maxShards bounds the record count (and the poll scan)
// for very large grids.
const (
	defaultPoll = 100 * time.Millisecond
	maxShards   = 256
)

// ShardEvent is one observed shard transition, reported by the
// coordinator's poll loop in the order observed. Transitions for a shard
// are monotone: leased may repeat across reclaims; done and failed are
// terminal.
type ShardEvent struct {
	// Shard is the shard index; Shards the job's total.
	Shard  int
	Shards int
	// Lo and Hi bound the shard's cell range [Lo, Hi).
	Lo int
	Hi int
	// Status is the transition: ShardLeased, ShardDone, or "failed".
	Status string
	// Worker is the owner at the transition.
	Worker string
	// Reused, on done events, counts the shard's cells served from the
	// shared cell cache (the shard record's Reused field).
	Reused int
}

// ShardFailed is the ShardEvent status of a shard whose record carries
// an error.
const ShardFailed = "failed"

// Coordinator plans grids into shards and merges the scores workers
// write into them. One coordinator serves one topology; the manager calls
// RunJob once per distributed job.
type Coordinator struct {
	// Store is the shared store of the topology.
	Store Store
	// Poll is the shard-watch interval; 0 means 100ms.
	Poll time.Duration
}

func (c *Coordinator) poll() time.Duration {
	if c.Poll > 0 {
		return c.Poll
	}
	return defaultPoll
}

// planShards splits [0, cells) into contiguous shards of whole
// (candidate, parameter) columns, each column being folds consecutive
// cells: one column per shard, or as few more per shard as keep the job
// within maxShards. Every fold of a column clusters the same input —
// for FOSC-OPTICSDend one OPTICS ordering, since the supervision only
// enters at extraction — so a column split across two shards would have
// two workers build it.
func planShards(cells, folds int) [][2]int {
	columns := cells / folds
	per := (columns + maxShards - 1) / maxShards * folds
	var out [][2]int
	for lo := 0; lo < cells; lo += per {
		out = append(out, [2]int{lo, min(lo+per, cells)})
	}
	return out
}

// RunJob distributes the job jobID, whose cells plan lays out: it
// publishes the job's pending shards, waits for workers to compute every
// shard, and returns the assembled per-cell score vector — in cell
// order, ready for plan.Finalize. Workers plan from the job's own record
// in the store, which the caller must have written under jobID. onShard,
// when non-nil, observes shard transitions (from the coordinator's poll
// cadence, so transient states between polls may be skipped).
//
// RunJob starts by deleting any records a previous incarnation of the
// job left behind — the coordinator-restart path: the re-queued job
// replans and every shard recomputes to the same bits. All distribution
// records are deleted again before returning, on success, failure and
// cancellation alike; workers mid-shard at cancellation notice the
// deletion through their heartbeat and abort. When several shards fail,
// the error of the lowest-indexed one is returned, mirroring the
// engine's deterministic error selection.
func (c *Coordinator) RunJob(ctx context.Context, jobID string, plan *cvcp.CellPlan, onShard func(ShardEvent)) ([]float64, error) {
	if jobID == "" {
		return nil, fmt.Errorf("dist: job without ID")
	}
	cells := plan.NumCells()
	if cells < 1 {
		return nil, fmt.Errorf("dist: job %s has %d cells", jobID, cells)
	}
	ranges := planShards(cells, plan.NumFolds())
	if err := c.cleanup(jobID); err != nil {
		return nil, err
	}
	defer c.cleanup(jobID)

	for i, r := range ranges {
		rec, err := shardRecord(ShardState{Job: jobID, Index: i, Lo: r[0], Hi: r[1], Cells: cells}, ShardPending)
		if err != nil {
			return nil, err
		}
		if err := c.Store.Put(rec); err != nil {
			return nil, fmt.Errorf("dist: publishing shard %d: %w", i, err)
		}
	}
	return c.watch(ctx, jobID, cells, ranges, onShard)
}

// watch polls the shard records until every shard is done, reporting
// transitions along the way and keeping each finished shard's state.
func (c *Coordinator) watch(ctx context.Context, jobID string, cells int, ranges [][2]int, onShard func(ShardEvent)) ([]float64, error) {
	leasedAt := make([]int, len(ranges)) // epoch of the last leased event
	done := make([]*ShardState, len(ranges))
	collected := 0

	ticker := time.NewTicker(c.poll())
	defer ticker.Stop()
	for {
		for i, r := range ranges {
			if done[i] != nil {
				continue
			}
			rec, ok, err := c.Store.Get(ShardID(jobID, i))
			if err != nil {
				return nil, fmt.Errorf("dist: reading shard %d: %w", i, err)
			}
			if !ok {
				return nil, fmt.Errorf("dist: shard record %d of job %s vanished", i, jobID)
			}
			st, err := decodeShardState(rec)
			if err != nil {
				return nil, err
			}
			ev := ShardEvent{Shard: i, Shards: len(ranges), Lo: r[0], Hi: r[1], Status: rec.Status, Worker: st.Owner}
			switch {
			case rec.Status == ShardDone:
				if st.Error == "" && len(st.ScoreBits) != r[1]-r[0] {
					return nil, fmt.Errorf("dist: shard %d of job %s has %d scores for range [%d, %d)",
						i, jobID, len(st.ScoreBits), r[0], r[1])
				}
				done[i] = &st
				collected++
				if st.Error != "" {
					ev.Status = ShardFailed
				}
				ev.Reused = st.Reused
			case rec.Status == ShardLeased && st.Epoch != leasedAt[i]:
				// Every acquisition bumps the epoch, so a new epoch is a
				// new lease: first acquisition or reclaim.
				leasedAt[i] = st.Epoch
			default:
				continue
			}
			if onShard != nil {
				onShard(ev)
			}
		}
		if collected == len(ranges) {
			break
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-ticker.C:
		}
	}

	for _, st := range done {
		if st.Error != "" {
			return nil, fmt.Errorf("dist: shard %d (cells [%d, %d)) failed on %s: %s",
				st.Index, st.Lo, st.Hi, st.Owner, st.Error)
		}
	}
	scores := make([]float64, 0, cells)
	for _, st := range done {
		scores = append(scores, decodeScores(st.ScoreBits)...)
	}
	return scores, nil
}

// cleanup deletes the job's shard records. A previous incarnation may
// have used a different shard count; sweep by prefix rather than by the
// current plan.
func (c *Coordinator) cleanup(jobID string) error {
	prefix := shardPrefix + jobID + "-"
	if _, err := store.DeletePrefix(c.Store, prefix); err != nil {
		return fmt.Errorf("dist: deleting %s records: %w", prefix, err)
	}
	return nil
}
