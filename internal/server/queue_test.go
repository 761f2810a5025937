package server

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// fqJobs builds n distinct job pointers for queue-only tests (the fair
// queue never looks inside them).
func fqJobs(n int) []*Job {
	out := make([]*Job, n)
	for i := range out {
		out[i] = &Job{id: fmt.Sprintf("fq-%03d", i)}
	}
	return out
}

// TestFairQueueWeightRatio: under contention a weight-3 tenant dequeues
// three entries for every one of a weight-1 tenant.
func TestFairQueueWeightRatio(t *testing.T) {
	q := newFairQueue()
	heavy, light := fqJobs(12), fqJobs(4)
	owner := map[*Job]string{}
	for _, j := range heavy {
		owner[j] = "heavy"
		q.push("heavy", 3, j)
	}
	for _, j := range light {
		owner[j] = "light"
		q.push("light", 1, j)
	}
	if q.len() != 16 {
		t.Fatalf("len = %d, want 16", q.len())
	}
	// Every window of 4 pops must hold exactly 3 heavy and 1 light.
	for w := 0; w < 4; w++ {
		counts := map[string]int{}
		for i := 0; i < 4; i++ {
			j := q.pop()
			if j == nil {
				t.Fatalf("queue empty at pop %d", w*4+i)
			}
			counts[owner[j]]++
		}
		if counts["heavy"] != 3 || counts["light"] != 1 {
			t.Fatalf("window %d popped %v, want 3 heavy + 1 light", w, counts)
		}
	}
	if q.pop() != nil {
		t.Fatal("queue should be empty")
	}
}

// TestFairQueuePerTenantFIFO: a tenant's own submissions dequeue in
// submission order regardless of interleaving with other tenants.
func TestFairQueuePerTenantFIFO(t *testing.T) {
	q := newFairQueue()
	a, b := fqJobs(5), fqJobs(5)
	for i := 0; i < 5; i++ {
		q.push("a", 2, a[i])
		q.push("b", 1, b[i])
	}
	ai, bi := 0, 0
	for q.len() > 0 {
		j := q.pop()
		switch {
		case ai < 5 && j == a[ai]:
			ai++
		case bi < 5 && j == b[bi]:
			bi++
		default:
			t.Fatalf("pop returned out-of-order job %s (a at %d, b at %d)", j.id, ai, bi)
		}
	}
}

// TestFairQueueBacklogCannotStarve: a tenant arriving behind another
// tenant's deep backlog is served within two pops, not after the backlog.
func TestFairQueueBacklogCannotStarve(t *testing.T) {
	q := newFairQueue()
	backlog := fqJobs(100)
	for _, j := range backlog {
		q.push("busy", 1, j)
	}
	late := &Job{id: "late"}
	q.push("patient", 1, late)
	for i := 0; i < 2; i++ {
		if q.pop() == late {
			return
		}
	}
	t.Fatal("the late tenant's job was not among the first two pops over a 100-job backlog")
}

// TestFairQueueRemove: cancelling a queued entry updates the counts and
// never resurfaces the job.
func TestFairQueueRemove(t *testing.T) {
	q := newFairQueue()
	jobs := fqJobs(3)
	for _, j := range jobs {
		q.push("t", 1, j)
	}
	if !q.remove(jobs[1]) {
		t.Fatal("remove of a queued job returned false")
	}
	if q.remove(jobs[1]) {
		t.Fatal("second remove of the same job returned true")
	}
	if q.len() != 2 || q.queued("t") != 2 {
		t.Fatalf("len %d, queued %d; want 2, 2", q.len(), q.queued("t"))
	}
	if j := q.pop(); j != jobs[0] {
		t.Fatalf("first pop = %v, want jobs[0]", j)
	}
	if j := q.pop(); j != jobs[2] {
		t.Fatalf("second pop = %v, want jobs[2]", j)
	}
}

// TestFairnessSingleJobBeatsBacklog is the acceptance scenario: with one
// executor and two equal-weight tenants, a tenant submitting one job
// after another tenant queued 50 must have it complete while the bulk of
// the backlog is still waiting.
func TestFairnessSingleJobBeatsBacklog(t *testing.T) {
	ds, _ := testDataset(t, 30)
	RegisterAlgorithm("fair-sleep", sleepAlg{d: 10 * time.Millisecond}, []int{1})
	m := NewManager(Config{
		MaxRunningJobs: 1, WorkerBudget: 1, QueueDepth: 64,
		Tenants: []Tenant{
			{Key: "ka", Name: "alice", Weight: 1},
			{Key: "kb", Name: "bob", Weight: 1},
		},
	})
	defer m.Shutdown(context.Background())

	spec := quickSpec()
	spec.Algorithm = "fair-sleep"
	spec.Params = []int{1}

	aliceSpec := spec
	aliceSpec.Tenant = "alice"
	for i := 0; i < 50; i++ {
		if _, err := m.Submit(aliceSpec, ds); err != nil {
			t.Fatalf("alice job %d: %v", i, err)
		}
	}
	bobSpec := spec
	bobSpec.Tenant = "bob"
	bob, err := m.Submit(bobSpec, ds)
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, bob); s != StatusDone {
		t.Fatalf("bob's job finished as %s (%s)", s, bob.View().Error)
	}

	queued := 0
	views, _ := m.ListPage("", 0)
	for _, v := range views {
		if v.Tenant == "alice" && v.Status == StatusQueued {
			queued++
		}
	}
	if queued < 45 {
		t.Fatalf("only %d alice jobs still queued when bob finished; fair queueing should have left >= 45", queued)
	}
}
