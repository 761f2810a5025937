package server

import (
	"context"
	"testing"
	"time"
)

// TestShardEventOrderingUnderConcurrentWorkers runs a distributed job
// against four concurrent workers and checks the invariants of the shard
// event stream a client replays over SSE:
//
//   - per shard, the status sequence is monotone: any number of "leased"
//     transitions (reclaims repeat the state with a new owner) followed by
//     exactly one terminal "done", and nothing after it;
//   - every event attributes the transition to a worker from the known
//     worker set;
//   - the reported shard count is the same in every event, and every
//     shard index lies within it;
//   - sequence numbers are strictly increasing, so the SSE replay
//     delivers the transitions in exactly this order.
func TestShardEventOrderingUnderConcurrentWorkers(t *testing.T) {
	ds, _ := testDataset(t, 40)
	dir := t.TempDir()
	cs := openSharedStore(t, dir)
	defer cs.Close()
	m := NewManager(Config{
		MaxRunningJobs: 1, WorkerBudget: 2, Store: cs,
		Role: RoleCoordinator, Poll: 3 * time.Millisecond,
	})
	defer m.Shutdown(context.Background())

	workerIDs := map[string]bool{"w0": true, "w1": true, "w2": true, "w3": true}
	for id := range workerIDs {
		defer startServerWorker(t, dir, id)()
	}

	j, err := m.Submit(distTestSpec(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, j); s != StatusDone {
		t.Fatalf("distributed job finished as %s (%s)", s, j.View().Error)
	}

	evs, _ := j.EventsSince(0)
	lastSeq := 0
	shards := 0
	terminal := map[int]bool{}
	leasedSeen := map[int]int{}
	for _, ev := range evs {
		if ev.Seq <= lastSeq {
			t.Fatalf("event sequence not strictly increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.Type != "shard" {
			continue
		}
		if shards == 0 {
			shards = ev.Shards
		}
		if ev.Shards != shards {
			t.Errorf("shard event reports %d shards, earlier events said %d", ev.Shards, shards)
		}
		if ev.Shard < 0 || ev.Shard >= shards {
			t.Errorf("shard index %d outside [0, %d)", ev.Shard, shards)
		}
		if !workerIDs[ev.Worker] {
			t.Errorf("shard event attributed to unknown worker %q: %+v", ev.Worker, ev)
		}
		switch ev.ShardStatus {
		case "leased":
			if terminal[ev.Shard] {
				t.Errorf("shard %d leased after its terminal event", ev.Shard)
			}
			leasedSeen[ev.Shard]++
		case "done":
			if terminal[ev.Shard] {
				t.Errorf("shard %d reported done twice", ev.Shard)
			}
			terminal[ev.Shard] = true
		case "failed":
			t.Errorf("shard %d failed: %+v", ev.Shard, ev)
		default:
			t.Errorf("unknown shard status %q", ev.ShardStatus)
		}
	}
	if shards == 0 {
		t.Fatal("no shard events in the job's stream")
	}
	if len(terminal) != shards {
		t.Fatalf("%d of %d shards reported done", len(terminal), shards)
	}
}
