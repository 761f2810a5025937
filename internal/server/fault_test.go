package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"cvcp/internal/store"
	"cvcp/internal/store/storetest"
)

// errInjected is the scripted failure every fault test injects.
var errInjected = errors.New("storetest: injected failure")

// TestSubmitStoreFailureReleasesSlot proves a failed record write cannot
// leak its reserved queue slot or leave a half-created job behind: the
// very next submission into a depth-1 queue succeeds.
func TestSubmitStoreFailureReleasesSlot(t *testing.T) {
	ds, _ := testDataset(t, 20)
	faulty := storetest.Wrap(store.NewMemory())
	faulty.FailCalls(storetest.OpPut, errInjected, 1)
	m := NewManager(Config{QueueDepth: 1, MaxRunningJobs: 1, WorkerBudget: 1, Store: faulty})
	defer m.Shutdown(context.Background())

	if _, err := m.Submit(quickSpec(), ds); !errors.Is(err, errInjected) {
		t.Fatalf("submit error = %v, want the injected store failure", err)
	}
	if n := m.Len(); n != 0 {
		t.Fatalf("failed submission left %d job(s) visible", n)
	}

	// The queue has exactly one slot; if the failed submission leaked its
	// reservation this would fail with ErrQueueFull.
	j, err := m.Submit(quickSpec(), ds)
	if err != nil {
		t.Fatalf("submit after store failure: %v", err)
	}
	if s := waitTerminal(t, j); s != StatusDone {
		t.Fatalf("job finished as %s, want done", s)
	}
}

// TestBatchStoreFailureRollsBack proves a mid-batch write failure removes
// every already-persisted sibling: the store retains no job records and
// the queue slots all free.
func TestBatchStoreFailureRollsBack(t *testing.T) {
	ds, _ := testDataset(t, 20)
	faulty := storetest.Wrap(store.NewMemory())
	faulty.FailCalls(storetest.OpPut, errInjected, 2) // second item's record write
	m := NewManager(Config{QueueDepth: 3, MaxRunningJobs: 1, WorkerBudget: 1, Store: faulty})
	defer m.Shutdown(context.Background())

	items := []BatchItem{
		{Spec: quickSpec(), Dataset: ds},
		{Spec: quickSpec(), Dataset: ds},
		{Spec: quickSpec(), Dataset: ds},
	}
	if _, err := m.SubmitBatch(items); !errors.Is(err, errInjected) {
		t.Fatalf("batch error = %v, want the injected store failure", err)
	}
	if n := m.Len(); n != 0 {
		t.Fatalf("rolled-back batch left %d job(s) visible", n)
	}
	recs, _, err := faulty.List("", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if strings.HasPrefix(rec.ID, "job-") {
			t.Fatalf("rolled-back batch left record %s in the store", rec.ID)
		}
	}

	// All three slots must be free again: the same batch fits.
	bv, err := m.SubmitBatch(items)
	if err != nil {
		t.Fatalf("batch after rollback: %v", err)
	}
	if len(bv.Jobs) != 3 {
		t.Fatalf("retried batch created %d jobs, want 3", len(bv.Jobs))
	}
	for _, v := range bv.Jobs {
		j, err := m.Get(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if s := waitTerminal(t, j); s != StatusDone {
			t.Fatalf("batch job %s finished as %s, want done", v.ID, s)
		}
	}
}

// TestReplayListFailureServesEmpty proves an unreadable store at startup
// degrades to an empty service instead of a crash — and that the manager
// still accepts new work against the (now healthy) store.
func TestReplayListFailureServesEmpty(t *testing.T) {
	ds, _ := testDataset(t, 20)
	mem := store.NewMemory()

	seed := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 1, Store: mem})
	j, err := seed.Submit(quickSpec(), ds)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	seed.Shutdown(context.Background())

	faulty := storetest.Wrap(mem)
	faulty.FailCalls(storetest.OpList, errInjected, 1)
	m := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 1, Store: faulty})
	defer m.Shutdown(context.Background())
	if n := m.Len(); n != 0 {
		t.Fatalf("manager replayed %d job(s) from an unreadable store", n)
	}
	j2, err := m.Submit(quickSpec(), ds)
	if err != nil {
		t.Fatalf("submit after failed replay: %v", err)
	}
	if s := waitTerminal(t, j2); s != StatusDone {
		t.Fatalf("job finished as %s, want done", s)
	}
}

// TestAppendEventsFailureDegrades proves a broken event log never fails
// the job: the selection completes and only the persisted SSE history is
// lost.
func TestAppendEventsFailureDegrades(t *testing.T) {
	ds, _ := testDataset(t, 20)
	faulty := storetest.Wrap(store.NewMemory())
	faulty.Hook(storetest.OpAppendEvents, func(call int, id string) error { return errInjected })
	m := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 1, Store: faulty})
	defer m.Shutdown(context.Background())

	j, err := m.Submit(quickSpec(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, j); s != StatusDone {
		t.Fatalf("job finished as %s, want done", s)
	}
	if v := j.View(); v.Result == nil {
		t.Fatal("job completed without a result")
	}
	if faulty.Calls(storetest.OpAppendEvents) == 0 {
		t.Fatal("no AppendEvents calls reached the store; the test exercised nothing")
	}
	evs, err := faulty.EventsSince(j.ID(), 0)
	if err != nil && !errors.Is(err, errInjected) {
		t.Fatal(err)
	}
	if len(evs) != 0 {
		t.Fatalf("injected failures still persisted %d event(s)", len(evs))
	}
}

// listJobIDs walks GET /v1/jobs in pages of limit jobs (0: one page of
// everything) and returns the listed IDs.
func listJobIDs(t *testing.T, ts *httptest.Server, limit int) []string {
	t.Helper()
	var ids []string
	cursor := ""
	for {
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs?limit=%d&cursor=%s", ts.URL, limit, cursor))
		if err != nil {
			t.Fatal(err)
		}
		var lr jobListResponse
		err = json.NewDecoder(resp.Body).Decode(&lr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, jv := range lr.Jobs {
			ids = append(ids, jv.ID)
		}
		if lr.NextCursor == "" {
			return ids
		}
		cursor = lr.NextCursor
	}
}

// TestListingShowsOnlyResidentJobs lists jobs while a batch persists:
// the first member's record is already in the store, but the batch has
// not published it and, once the second member's write fails, rolls it
// back. A listing shows exactly the jobs GET /v1/jobs/{id} answers.
func TestListingShowsOnlyResidentJobs(t *testing.T) {
	ds, _ := testDataset(t, 20)
	faulty := storetest.Wrap(store.NewMemory())
	ts, m := newTestServer(t, Config{QueueDepth: 3, MaxRunningJobs: 1, WorkerBudget: 1, Store: faulty})

	checked := false
	faulty.Hook(storetest.OpPut, func(call int, id string) error {
		if id != "job-000000002" || checked {
			return nil
		}
		checked = true
		for _, listed := range listJobIDs(t, ts, 0) {
			if _, err := m.Get(listed); err != nil {
				t.Errorf("listing shows %s, which Get answers with %v", listed, err)
			}
		}
		return errInjected
	})
	items := []BatchItem{
		{Spec: quickSpec(), Dataset: ds},
		{Spec: quickSpec(), Dataset: ds},
		{Spec: quickSpec(), Dataset: ds},
	}
	if _, err := m.SubmitBatch(items); !errors.Is(err, errInjected) {
		t.Fatalf("batch error = %v, want the injected store failure", err)
	}
	if !checked {
		t.Fatal("the second member's Put never ran; the test listed nothing")
	}
	if ids := listJobIDs(t, ts, 0); len(ids) != 0 {
		t.Fatalf("rolled-back batch still lists %v", ids)
	}
}

// TestSSEAndListingsMakeNoStoreReads proves the store is read back only
// by NewManager's replay: afterwards submissions, an SSE replay from seq
// 0, listings and a Last-Event-ID resume reaching further back than a
// job's newest 256 events make no List or EventsSince call, on a job
// the replay restored as on new ones.
func TestSSEAndListingsMakeNoStoreReads(t *testing.T) {
	ds, _ := testDataset(t, 40)
	mem := store.NewMemory()
	seed := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 2, Store: mem})
	restored, err := seed.Submit(quickSpec(), ds)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, restored)
	seed.Shutdown(context.Background())

	faulty := storetest.Wrap(mem)
	ts, m := newTestServer(t, Config{MaxRunningJobs: 1, WorkerBudget: 2, Store: faulty})
	lists, scans := faulty.Calls(storetest.OpList), faulty.Calls(storetest.OpEventsSince)

	// 128 parameters × 4 folds = 512 cells, past maxProgressEvents, so
	// coalescing publishes every other cell: 256 progress events.
	RegisterAlgorithm("instant-reads", sleepAlg{}, []int{1})
	params := make([]int, 128)
	for i := range params {
		params[i] = i + 1
	}
	big, err := m.Submit(Spec{Algorithm: "instant-reads", Params: params, NFolds: 4, Seed: 3, LabelFraction: 0.5}, ds)
	if err != nil {
		t.Fatal(err)
	}
	bv, err := m.SubmitBatch([]BatchItem{{Spec: quickSpec(), Dataset: ds}, {Spec: quickSpec(), Dataset: ds}})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{big.ID(), bv.Jobs[0].ID, bv.Jobs[1].ID} {
		j, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if s := waitTerminal(t, j); s != StatusDone {
			t.Fatalf("job %s finished as %s (%s)", id, s, j.View().Error)
		}
	}

	full := getSSE(t, ts, big.ID(), 0)
	if len(full) <= 257 {
		t.Fatalf("the %d-cell job published %d events; a resume from seq 1 must reach past 256", 128*4, len(full))
	}
	resumed := getSSE(t, ts, big.ID(), full[0].id)
	if len(resumed) != len(full)-1 {
		t.Fatalf("resume after seq %d = %d events, want %d", full[0].id, len(resumed), len(full)-1)
	}
	for i, ev := range resumed {
		if !sameSSE(ev, full[i+1]) {
			t.Fatalf("resumed event %d = %+v, want %+v", i, ev, full[i+1])
		}
	}
	if evs := getSSE(t, ts, restored.ID(), 0); len(evs) == 0 || evs[len(evs)-1].data.Status != StatusDone {
		t.Fatalf("restored job streamed %+v, want a history ending done", evs)
	}
	want := []string{restored.ID(), big.ID(), bv.Jobs[0].ID, bv.Jobs[1].ID}
	for _, limit := range []int{0, 1, 3} {
		if got := listJobIDs(t, ts, limit); !slices.Equal(got, want) {
			t.Fatalf("listing in pages of %d = %v, want %v", limit, got, want)
		}
	}

	if n := faulty.Calls(storetest.OpList) - lists; n != 0 {
		t.Errorf("job reads made %d store List call(s) after NewManager returned", n)
	}
	if n := faulty.Calls(storetest.OpEventsSince) - scans; n != 0 {
		t.Errorf("job reads made %d store EventsSince call(s) after NewManager returned", n)
	}
}
