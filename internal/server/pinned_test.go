package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"sync"
	"testing"
	"time"
)

// The SHA-256 digests of TestDistributedPinned's result documents,
// recorded while the coordinator still cut fixed two-cell shards and
// published a grid record per job.
const (
	distCrossMethodPinnedDigest = "abcf16748bb24121e3c83a30e44ceef47b73359584cc66b3f972dfff33d6833c"
	distDatasetWarmPinnedDigest = "b5ae66037a6894a6a9eec86c94e0373c0bf064f0057734394d94c0fe436bdf95"
	distDatasetIncrPinnedDigest = "69faf5e3a4d88351d036b349a55959292159f4b71ca4f660dc3d5027b04adc22"
)

// TestDistributedPinned pins distributed results across commits: shards
// merged through CellPlan.Finalize, and a StableLabels re-selection
// after an append with the computed/reused split the coordinator sums
// from its workers' partials. The bit-identity tests beside it compare
// a distributed run with a single-node run of the same build; these
// digests also catch a change that moves both alike. A coordinator and
// two RunWorkers share one OpenShared directory, as separate processes
// would. Skipped off amd64, where the compiler may fuse multiply-adds.
func TestDistributedPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	dir := t.TempDir()
	cs := openSharedStore(t, dir)
	defer cs.Close()
	m := NewManager(Config{
		MaxRunningJobs: 1, WorkerBudget: 2, Store: cs,
		Role: RoleCoordinator, Poll: 3 * time.Millisecond,
	})
	defer m.Shutdown(context.Background())

	// A lease that expires mid-shard would let the reclaimer serve the
	// first owner's cached cells as reused and move the pinned split, so
	// the workers' leases outlive any scheduling stall.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, id := range []string{"w0", "w1"} {
		ws := openSharedStore(t, dir)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = RunWorker(ctx, WorkerConfig{Store: ws, ID: id, Workers: 2, LeaseTTL: 10 * time.Second, Poll: 3 * time.Millisecond})
			ws.Close()
		}()
	}
	defer wg.Wait()
	defer cancel()

	check := func(what string, j *Job, want string) *ResultView {
		t.Helper()
		if s := waitTerminal(t, j); s != StatusDone {
			t.Fatalf("%s finished as %s (%s)", what, s, j.View().Error)
		}
		shards := 0
		evs, _ := j.EventsSince(0)
		for _, ev := range evs {
			if ev.Type == "shard" && ev.ShardStatus == "done" {
				shards++
			}
		}
		if shards == 0 {
			t.Fatalf("%s ran without a done shard event; it was not distributed", what)
		}
		res := j.View().Result
		doc, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(doc)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: digest = %s (cells computed %d, reused %d), pinned %s\n%s",
				what, got, res.CellsComputed, res.CellsReused, want, doc)
		}
		return res
	}

	ds, _ := testDataset(t, 40)
	j, err := m.Submit(distTestSpec(), ds)
	if err != nil {
		t.Fatal(err)
	}
	check("cross-method labels job", j, distCrossMethodPinnedDigest)

	dv, err := m.CreateDataset("g", true, batchPtr(growthBatch(0, 60)))
	if err != nil {
		t.Fatal(err)
	}
	check("dataset job before the append", submitDatasetJob(t, m, datasetJobSpec(dv.ID)), distDatasetWarmPinnedDigest)
	if _, err := m.AppendRows(dv.ID, growthBatch(60, 62)); err != nil {
		t.Fatal(err)
	}
	check("dataset job after a 2-row append", submitDatasetJob(t, m, datasetJobSpec(dv.ID)), distDatasetIncrPinnedDigest)
}
