package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cvcp/internal/dataset"
	"cvcp/internal/metrics"
	"cvcp/internal/store"
	"cvcp/internal/store/storetest"
)

// growthRows builds rows [lo, hi) of the deterministic two-cluster growth
// sequence the dataset tests share: the rows of a grown dataset are
// bit-identical to the same index range of a from-scratch one.
func growthRows(lo, hi int) ([][]float64, []int) {
	x := make([][]float64, 0, hi-lo)
	y := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		cl := i % 2
		base := float64(cl) * 10
		x = append(x, []float64{base + 0.3*float64(i%7), base + 0.2*float64(i%5)})
		y = append(y, cl)
	}
	return x, y
}

// growthCSV is growthRows as labeled CSV.
func growthCSV(t *testing.T, lo, hi int) string {
	t.Helper()
	x, y := growthRows(lo, hi)
	ds, err := dataset.New("rows", x, y)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := ds.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// growthBatch is growthRows as a RowBatch.
func growthBatch(lo, hi int) dataset.RowBatch {
	x, y := growthRows(lo, hi)
	return dataset.RowBatch{Rows: x, Labels: y}
}

// datasetJobSpec is the dataset-referencing job the tests submit: stable
// folds, so only appended-to folds dirty.
func datasetJobSpec(id string) Spec {
	return Spec{DatasetID: id, Algorithm: "fosc", Params: []int{3, 6}, NFolds: 4, Seed: 7, LabelFraction: 0.5}
}

// submitDatasetJob pins the dataset's current version into the spec,
// materializes the snapshot and submits — the manager-level equivalent of
// the POST /v1/jobs dataset path.
func submitDatasetJob(t *testing.T, m *Manager, spec Spec) *Job {
	t.Helper()
	ds, apiErr := m.SnapshotForJob(&spec)
	if apiErr != nil {
		t.Fatalf("snapshot: %v", apiErr.Message)
	}
	j, err := m.Submit(spec, ds)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// runDatasetJob submits and waits for done, returning the result view.
func runDatasetJob(t *testing.T, m *Manager, spec Spec) *ResultView {
	t.Helper()
	j := submitDatasetJob(t, m, spec)
	if s := waitTerminal(t, j); s != StatusDone {
		t.Fatalf("dataset job finished as %s (%s)", s, j.View().Error)
	}
	return j.View().Result
}

// postJSON posts a JSON document and fails on transport errors.
func postJSON(t *testing.T, url string, doc any) *http.Response {
	t.Helper()
	body, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// createDatasetHTTP creates a dataset over the API and returns its ID.
func createDatasetHTTP(t *testing.T, ts string, name, csv string) string {
	t.Helper()
	resp := postJSON(t, ts+"/v1/datasets", map[string]any{"name": name, "has_label": true, "csv": csv})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create dataset: status %d", resp.StatusCode)
	}
	var v DatasetView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v.ID
}

// submitDatasetJobHTTP submits a dataset-referencing job over the API and
// waits for done.
func submitDatasetJobHTTP(t *testing.T, ts, id string) JobView {
	t.Helper()
	resp := postJSON(t, ts+"/v1/jobs", map[string]any{
		"dataset_id": id, "algorithm": "fosc", "params": []int{3, 6},
		"folds": 4, "seed": 7, "label_fraction": 0.5,
	})
	v := decodeJob(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit dataset job: status %d", resp.StatusCode)
	}
	return v
}

// An incremental re-selection over the HTTP API — create a dataset, run a
// selection, append rows, run it again — must (a) be bit-identical to a
// from-scratch selection over a dataset created with all rows at once,
// and (b) schedule strictly fewer cells, reusing every clean fold's
// cached scores. Holds at every worker budget.
func TestDatasetIncrementalReselectBitIdenticalHTTP(t *testing.T) {
	const totalCells = 2 * 4 // params × folds
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("budget-%d", workers), func(t *testing.T) {
			ts, _ := newTestServer(t, Config{MaxRunningJobs: 1, WorkerBudget: workers})
			id := createDatasetHTTP(t, ts.URL, "g", growthCSV(t, 0, 60))

			warm := submitDatasetJobHTTP(t, ts.URL, id)
			warmDone := pollJob(t, ts, warm.ID, StatusDone)
			if warmDone.DatasetID != id || warmDone.DatasetVer != 1 {
				t.Fatalf("warm job pinned (%s, v%d), want (%s, v1)", warmDone.DatasetID, warmDone.DatasetVer, id)
			}
			if c, r := warmDone.Result.CellsComputed, warmDone.Result.CellsReused; c != totalCells || r != 0 {
				t.Fatalf("warm run computed %d, reused %d; want %d, 0", c, r, totalCells)
			}

			// Append two rows: they land in folds 0 and 1 (StableFold),
			// so folds 2 and 3 — half the grid — stay clean.
			resp, err := http.Post(ts.URL+"/v1/datasets/"+id+"/rows", "text/csv", strings.NewReader(growthCSV(t, 60, 62)))
			if err != nil {
				t.Fatal(err)
			}
			var dv DatasetView
			if err := json.NewDecoder(resp.Body).Decode(&dv); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if dv.Version != 2 || dv.Rows != 62 {
				t.Fatalf("append: version %d rows %d, want 2 and 62", dv.Version, dv.Rows)
			}

			incr := pollJob(t, ts, submitDatasetJobHTTP(t, ts.URL, id).ID, StatusDone)
			c, r := incr.Result.CellsComputed, incr.Result.CellsReused
			if c+r != totalCells || r == 0 || c >= totalCells {
				t.Fatalf("incremental run computed %d, reused %d; want a full split with strictly fewer than %d computed", c, r, totalCells)
			}

			// From-scratch reference: a fresh server whose dataset gets
			// all 62 rows in one batch.
			ts2, _ := newTestServer(t, Config{MaxRunningJobs: 1, WorkerBudget: workers})
			id2 := createDatasetHTTP(t, ts2.URL, "g", growthCSV(t, 0, 62))
			scratch := pollJob(t, ts2, submitDatasetJobHTTP(t, ts2.URL, id2).ID, StatusDone)
			sameResultView(t, incr.Result, scratch.Result)
		})
	}
}

// The same incremental-vs-scratch contract through the distributed path:
// a coordinator with four workers over a shared store, where the cell
// cache lives in the shared store and the reused/dirty split is reported
// by the workers and summed by the coordinator.
func TestDatasetIncrementalReselectBitIdenticalDistributed(t *testing.T) {
	dir := t.TempDir()
	cs := openSharedStore(t, dir)
	defer cs.Close()
	m := NewManager(Config{
		MaxRunningJobs: 1, WorkerBudget: 2, Store: cs,
		Role: RoleCoordinator, Poll: 3 * time.Millisecond,
	})
	defer m.Shutdown(context.Background())
	// The workers' leases outlive any scheduling stall, so a reclaim
	// cannot move the split.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		ws := openSharedStore(t, dir)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = RunWorker(ctx, WorkerConfig{Store: ws, ID: fmt.Sprintf("w%d", i), Workers: 2, LeaseTTL: 10 * time.Second, Poll: 3 * time.Millisecond})
			ws.Close()
		}()
	}
	defer wg.Wait()
	defer cancel()

	dv, err := m.CreateDataset("g", true, batchPtr(growthBatch(0, 60)))
	if err != nil {
		t.Fatal(err)
	}
	spec := datasetJobSpec(dv.ID)
	const totalCells = 2 * 4
	warm := runDatasetJob(t, m, spec)
	if warm.CellsComputed != totalCells || warm.CellsReused != 0 {
		t.Fatalf("warm run computed %d, reused %d; want %d, 0", warm.CellsComputed, warm.CellsReused, totalCells)
	}

	if _, err := m.AppendRows(dv.ID, growthBatch(60, 62)); err != nil {
		t.Fatal(err)
	}
	incr := runDatasetJob(t, m, datasetJobSpec(dv.ID))
	c, r := incr.CellsComputed, incr.CellsReused
	if c+r != totalCells || r == 0 || c >= totalCells {
		t.Fatalf("incremental run computed %d, reused %d; want a full split with strictly fewer than %d computed", c, r, totalCells)
	}

	// From-scratch reference on a fresh single-node manager.
	scratchM := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 2})
	defer scratchM.Shutdown(context.Background())
	sdv, err := scratchM.CreateDataset("g", true, batchPtr(growthBatch(0, 62)))
	if err != nil {
		t.Fatal(err)
	}
	scratch := runDatasetJob(t, scratchM, datasetJobSpec(sdv.ID))
	sameResultView(t, incr, scratch)
}

// A failing cell-cache write must degrade to recomputation, never fail
// the job or change its result: the cache is an optimization, not a
// correctness dependency.
func TestDatasetCellCachePutFailureDegrades(t *testing.T) {
	faulty := storetest.Wrap(store.NewMemory())
	faulty.Hook(storetest.OpPut, func(call int, id string) error {
		if strings.HasPrefix(id, "cell-") {
			return errInjected
		}
		return nil
	})
	m := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 2, Store: faulty})
	defer m.Shutdown(context.Background())
	dv, err := m.CreateDataset("g", true, batchPtr(growthBatch(0, 60)))
	if err != nil {
		t.Fatal(err)
	}
	const totalCells = 2 * 4
	for run := 0; run < 2; run++ {
		res := runDatasetJob(t, m, datasetJobSpec(dv.ID))
		// Nothing was ever cached, so the second run recomputes the full
		// grid too.
		if res.CellsComputed != totalCells || res.CellsReused != 0 {
			t.Fatalf("run %d computed %d, reused %d; want %d, 0", run, res.CellsComputed, res.CellsReused, totalCells)
		}
	}

	// And the degraded result is the clean-store result, bit for bit.
	clean := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 2})
	defer clean.Shutdown(context.Background())
	cdv, err := clean.CreateDataset("g", true, batchPtr(growthBatch(0, 60)))
	if err != nil {
		t.Fatal(err)
	}
	want := runDatasetJob(t, clean, datasetJobSpec(cdv.ID))
	got := runDatasetJob(t, m, datasetJobSpec(dv.ID))
	sameResultView(t, got, want)
}

// Dataset errors map to API errors by the sentinel the manager wraps,
// never by their text: a row batch refused by a dataset named
// "persisting" is the client's 400, and a store failure while deleting a
// dataset is the server's 500. Both keep the manager's message.
func TestDatasetErrorsMapByIdentity(t *testing.T) {
	faulty := storetest.Wrap(store.NewMemory())
	ts, _ := newTestServer(t, Config{MaxRunningJobs: 1, WorkerBudget: 1, Store: faulty})
	id := createDatasetHTTP(t, ts.URL, "persisting", growthCSV(t, 0, 4))

	wide, err := dataset.New("rows", [][]float64{{1, 2, 3}}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	if err := wide.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/datasets/"+id+"/rows", "text/csv", strings.NewReader(csv.String()))
	if err != nil {
		t.Fatal(err)
	}
	want := `dataset "persisting": batch row 0 has 3 attributes, want 2`
	if e := decodeAPIError(t, resp); resp.StatusCode != http.StatusBadRequest || e.Code != "invalid_request" || e.Message != want {
		t.Errorf("3-attribute append: status %d, error (%q, %q), want 400 (invalid_request, %q)", resp.StatusCode, e.Code, e.Message, want)
	}

	faulty.FailCalls(storetest.OpDelete, errInjected, 1)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	want = "server: deleting dataset " + id + ": " + errInjected.Error()
	if e := decodeAPIError(t, resp); resp.StatusCode != http.StatusInternalServerError || e.Code != "internal" || e.Message != want {
		t.Errorf("failed delete: status %d, error (%q, %q), want 500 (internal, %q)", resp.StatusCode, e.Code, e.Message, want)
	}
}

// A store failure while deleting a dataset's meta record leaves the
// dataset registered: it is still served at its version with its version
// gauge, and a retried delete succeeds.
func TestDatasetDeleteFailureKeepsDataset(t *testing.T) {
	faulty := storetest.Wrap(store.NewMemory())
	m := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 1, Store: faulty})
	defer m.Shutdown(context.Background())
	dv, err := m.CreateDataset("g", true, batchPtr(growthBatch(0, 8)))
	if err != nil {
		t.Fatal(err)
	}
	if dv, err = m.AppendRows(dv.ID, growthBatch(8, 12)); err != nil {
		t.Fatal(err)
	}
	gauge := func() string {
		t.Helper()
		var buf strings.Builder
		if err := metrics.Default().Expose(&buf); err != nil {
			t.Fatal(err)
		}
		prefix := `cvcpd_dataset_version{dataset="` + dv.ID + `"} `
		for _, line := range strings.Split(buf.String(), "\n") {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				return v
			}
		}
		return "absent"
	}

	faulty.FailCalls(storetest.OpDelete, errInjected, faulty.Calls(storetest.OpDelete)+1)
	if err := m.DeleteDataset(dv.ID); !errors.Is(err, errInjected) {
		t.Fatalf("delete with a failing store = %v, want the injected failure", err)
	}
	got, err := m.GetDataset(dv.ID)
	if err != nil {
		t.Fatalf("dataset gone after a failed delete: %v", err)
	}
	if got.Version != 2 || got.Rows != 12 {
		t.Fatalf("dataset after a failed delete: %+v, want version 2 with 12 rows", got)
	}
	if g := gauge(); g != "2" {
		t.Errorf("version gauge after a failed delete = %s, want 2", g)
	}

	if err := m.DeleteDataset(dv.ID); err != nil {
		t.Fatalf("retried delete: %v", err)
	}
	if _, err := m.GetDataset(dv.ID); !errors.Is(err, ErrDatasetNotFound) {
		t.Errorf("dataset after the retried delete: %v, want ErrDatasetNotFound", err)
	}
	if g := gauge(); g != "absent" {
		t.Errorf("version gauge after the retried delete = %s, want no series", g)
	}
}

// A create whose initial row batch fails to persist leaves no dataset:
// the API answers 500, the listing is empty, and a manager reopened on
// the same store restores nothing.
func TestDatasetCreateFailureLeavesNoDataset(t *testing.T) {
	dir := t.TempDir()
	s1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	faulty := storetest.Wrap(s1)
	faulty.Hook(storetest.OpPut, func(call int, id string) error {
		if strings.HasPrefix(id, datasetBatchPrefix) {
			return errInjected
		}
		return nil
	})
	m1 := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 1, Store: faulty})
	ts := httptest.NewServer(NewHandler(m1))
	body, err := json.Marshal(datasetCreateRequest{Name: "g", HasLabel: true, CSV: growthCSV(t, 0, 8)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/datasets", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	if e := decodeAPIError(t, resp); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("create with a failing batch Put: status %d (%+v), want 500", resp.StatusCode, e)
	}
	resp, err = http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var list datasetListResponse
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Datasets) != 0 {
		t.Fatalf("GET /v1/datasets after a failed create lists %+v, want nothing", list.Datasets)
	}
	ts.Close()
	m1.Shutdown(context.Background())
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	m2 := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 1, Store: s2})
	defer m2.Shutdown(context.Background())
	if got := m2.ListDatasets(); len(got) != 0 {
		t.Fatalf("reopened manager restored %+v, want no dataset", got)
	}
}

// Restarting a manager over its file store must resurrect every dataset
// at its exact version and keep the cell cache warm: the first selection
// after the restart reuses the whole grid. Deleting the dataset then
// sweeps its batches and cells from the store.
func TestDatasetRestartKeepsDatasetsAndCellCache(t *testing.T) {
	dir := t.TempDir()
	s1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1 := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 2, Store: s1})
	dv, err := m1.CreateDataset("g", true, batchPtr(growthBatch(0, 40)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.AppendRows(dv.ID, growthBatch(40, 60)); err != nil {
		t.Fatal(err)
	}
	const totalCells = 2 * 4
	warm := runDatasetJob(t, m1, datasetJobSpec(dv.ID))
	if warm.CellsComputed != totalCells {
		t.Fatalf("warm run computed %d cells, want %d", warm.CellsComputed, totalCells)
	}
	m1.Shutdown(context.Background())
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	m2 := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 2, Store: s2})
	defer m2.Shutdown(context.Background())
	got, err := m2.GetDataset(dv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 2 || got.Rows != 60 || got.Dims != 2 || !got.HasLabel {
		t.Fatalf("restored dataset %+v, want version 2 with 60 2-dim labeled rows", got)
	}
	res := runDatasetJob(t, m2, datasetJobSpec(dv.ID))
	if res.CellsComputed != 0 || res.CellsReused != totalCells {
		t.Fatalf("post-restart run computed %d, reused %d; want 0, %d", res.CellsComputed, res.CellsReused, totalCells)
	}
	sameResultView(t, res, warm)

	// DELETE sweeps the dataset's meta, batch and cell records.
	if err := m2.DeleteDataset(dv.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.GetDataset(dv.ID); err == nil {
		t.Fatal("deleted dataset still visible")
	}
	recs, _, err := s2.List("", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		for _, prefix := range []string{"cell-", "ds-", "dsb-"} {
			if strings.HasPrefix(rec.ID, prefix) {
				t.Fatalf("leftover dataset record %s after delete", rec.ID)
			}
		}
	}
}

func batchPtr(b dataset.RowBatch) *dataset.RowBatch { return &b }

// putRecorder keeps a copy of every record Put through it.
type putRecorder struct {
	store.Store
	mu   sync.Mutex
	puts []store.Record
}

func (p *putRecorder) Put(rec store.Record) error {
	p.mu.Lock()
	p.puts = append(p.puts, rec.Clone())
	p.mu.Unlock()
	return p.Store.Put(rec)
}

// jobPuts returns the records Put under the job's ID, in order.
func (p *putRecorder) jobPuts(id string) []store.Record {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []store.Record
	for _, rec := range p.puts {
		if rec.ID == id {
			out = append(out, rec)
		}
	}
	return out
}

// A dataset job's records carry no rows: its queued and running records
// name the dataset and the pinned version in the spec, and their Dataset
// field is empty. An inline-CSV job's live records still carry its CSV,
// the only durable copy of its rows.
func TestDatasetJobRecordsCarryNoRows(t *testing.T) {
	rs := &putRecorder{Store: store.NewMemory()}
	m := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 2, Store: rs})
	defer m.Shutdown(context.Background())
	dv, err := m.CreateDataset("g", true, batchPtr(growthBatch(0, 40)))
	if err != nil {
		t.Fatal(err)
	}
	dsJob := submitDatasetJob(t, m, datasetJobSpec(dv.ID))
	if s := waitTerminal(t, dsJob); s != StatusDone {
		t.Fatalf("dataset job finished as %s (%s)", s, dsJob.View().Error)
	}
	inlineDS, inlineCSV := testDataset(t, 30)
	inline, err := m.Submit(quickSpec(), inlineDS)
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, inline); s != StatusDone {
		t.Fatalf("inline job finished as %s", s)
	}

	live := func(j *Job) map[string]store.Record {
		t.Helper()
		byStatus := map[string]store.Record{}
		for _, rec := range rs.jobPuts(j.ID()) {
			if !Status(rec.Status).Terminal() {
				byStatus[rec.Status] = rec
			}
		}
		for _, st := range []Status{StatusQueued, StatusRunning} {
			if _, ok := byStatus[string(st)]; !ok {
				t.Fatalf("job %s: no %s record was written", j.ID(), st)
			}
		}
		return byStatus
	}
	for st, rec := range live(dsJob) {
		if len(rec.Dataset) != 0 {
			t.Errorf("dataset job's %s record carries %d payload bytes, want none", st, len(rec.Dataset))
		}
		var sr specRecord
		if err := json.Unmarshal(rec.Spec, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Spec.DatasetID != dv.ID || sr.Spec.DatasetVersion != 1 {
			t.Errorf("dataset job's %s record pins (%s, v%d), want (%s, v1)", st, sr.Spec.DatasetID, sr.Spec.DatasetVersion, dv.ID)
		}
	}
	for st, rec := range live(inline) {
		var dr datasetRecord
		if err := json.Unmarshal(rec.Dataset, &dr); err != nil {
			t.Fatalf("inline job's %s record: %v", st, err)
		}
		if dr.CSV != inlineCSV || !dr.HasLabel {
			t.Errorf("inline job's %s record carries CSV %.40q (labeled %v), want its rows", st, dr.CSV, dr.HasLabel)
		}
	}
}

// interruptDatasetJob runs a dataset job on a manager over a file store
// in dir until the job is inside its first grid cell, so its record
// reads running, then calls between (the tests append rows or delete the
// dataset there). It returns the abandoned manager and store, as a
// killed process leaves them, the parked job and its dataset's ID; the
// caller releases alg and then calls the returned teardown.
func interruptDatasetJob(t *testing.T, dir string, alg gatedAlg, algName string, between func(m *Manager, dsID string)) (j *Job, dsID string, teardown func()) {
	t.Helper()
	s1 := openFileStore(t, dir)
	// One engine worker: the parked cell is the only work in flight.
	m1 := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 1, Store: s1})
	dv, err := m1.CreateDataset("g", true, batchPtr(growthBatch(0, 60)))
	if err != nil {
		t.Fatal(err)
	}
	spec := datasetJobSpec(dv.ID)
	spec.Algorithm = algName
	j = submitDatasetJob(t, m1, spec)
	<-alg.started
	between(m1, dv.ID)
	return j, dv.ID, func() {
		waitTerminal(t, j)
		m1.Shutdown(context.Background())
		s1.Close()
	}
}

// A dataset job interrupted while running re-queues after a restart on
// its pinned version, though rows were appended after it was pinned, and
// finishes bit-identical to an uninterrupted run on those rows. Its
// record carried no rows: the restart rebuilt them from the dataset's
// own records.
func TestDatasetJobRestartRequeuesPinnedVersion(t *testing.T) {
	alg := newGatedAlg()
	RegisterAlgorithm("gated-ds-requeue", alg, []int{3, 6})
	dir := t.TempDir()
	j, dsID, teardown := interruptDatasetJob(t, dir, alg, "gated-ds-requeue", func(m *Manager, id string) {
		if _, err := m.AppendRows(id, growthBatch(60, 62)); err != nil {
			t.Fatal(err)
		}
	})

	s2 := openFileStore(t, dir)
	m2 := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 2, Store: s2})
	rj, err := m2.Get(j.ID())
	if err != nil {
		t.Fatalf("interrupted job not replayed: %v", err)
	}
	if s := waitTerminal(t, rj); s != StatusDone {
		t.Fatalf("re-queued dataset job finished as %s (%s)", s, rj.View().Error)
	}
	got := rj.View()
	if got.DatasetID != dsID || got.DatasetVer != 1 || got.Objects != 60 {
		t.Fatalf("re-queued job ran on (%s, v%d, %d rows), want (%s, v1, 60 rows)", got.DatasetID, got.DatasetVer, got.Objects, dsID)
	}

	// Uninterrupted reference on a fresh manager holding only the pinned
	// rows (the gate only parks the first call, so this one runs through).
	ref := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 2})
	defer ref.Shutdown(context.Background())
	rdv, err := ref.CreateDataset("g", true, batchPtr(growthBatch(0, 60)))
	if err != nil {
		t.Fatal(err)
	}
	spec := datasetJobSpec(rdv.ID)
	spec.Algorithm = "gated-ds-requeue"
	sameResultView(t, got.Result, runDatasetJob(t, ref, spec))

	m2.Shutdown(context.Background())
	s2.Close()
	close(alg.release)
	teardown()
}

// A dataset job interrupted while running whose dataset is deleted
// before the restart comes back failed, with an error naming the dataset
// and the pinned version, and is not re-queued: its record reads failed,
// so no later restart runs it either.
func TestDatasetJobRestartFailsWhenDatasetGone(t *testing.T) {
	alg := newGatedAlg()
	RegisterAlgorithm("gated-ds-gone", alg, []int{3, 6})
	dir := t.TempDir()
	j, dsID, teardown := interruptDatasetJob(t, dir, alg, "gated-ds-gone", func(m *Manager, id string) {
		if err := m.DeleteDataset(id); err != nil {
			t.Fatal(err)
		}
	})

	s2 := openFileStore(t, dir)
	m2 := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 2, Store: s2})
	rj, err := m2.Get(j.ID())
	if err != nil {
		t.Fatalf("interrupted job not replayed: %v", err)
	}
	v := rj.View()
	if v.Status != StatusFailed {
		t.Fatalf("job on a deleted dataset came back %s, want failed", v.Status)
	}
	if want := "dataset " + dsID + " version 1"; !strings.Contains(v.Error, want) {
		t.Errorf("error %q does not name %q", v.Error, want)
	}
	if rec, ok, err := s2.Get(j.ID()); err != nil || !ok || rec.Status != string(StatusFailed) {
		t.Errorf("job record after the restart: %q (found %v, err %v), want failed", rec.Status, ok, err)
	}

	m2.Shutdown(context.Background())
	s2.Close()
	close(alg.release)
	teardown()
}

// A worker rebuilds a dataset job's rows from the dataset's records
// alone. When the pinned version was never reached, or the dataset is
// deleted, resolving the plan fails with an error naming the dataset and
// the version: the worker never plans other rows.
func TestDatasetWorkerResolveNamesMissingVersion(t *testing.T) {
	m := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 1})
	defer m.Shutdown(context.Background())
	dv, err := m.CreateDataset("g", true, batchPtr(growthBatch(0, 40)))
	if err != nil {
		t.Fatal(err)
	}
	resolve := resolvePlan(m.store)
	jobRecord := func(version int) store.Record {
		spec := datasetJobSpec(dv.ID)
		spec.DatasetVersion = version
		blob, err := json.Marshal(specRecord{Spec: spec, DatasetName: "g@v1", Objects: 40})
		if err != nil {
			t.Fatal(err)
		}
		return store.Record{ID: "job-000000001", Status: string(StatusRunning), Spec: blob}
	}
	if p, err := resolve(jobRecord(1)); err != nil || p.NumCells() != 2*4 {
		t.Fatalf("resolving version 1: %v", err)
	}
	if _, err := resolve(jobRecord(2)); err == nil || !strings.Contains(err.Error(), "dataset "+dv.ID+" version 2") {
		t.Errorf("resolving a version never reached: %v, want an error naming %s version 2", err, dv.ID)
	}
	if err := m.DeleteDataset(dv.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := resolve(jobRecord(1)); !errors.Is(err, ErrDatasetNotFound) || !strings.Contains(err.Error(), "dataset "+dv.ID+" version 1") {
		t.Errorf("resolving a deleted dataset: %v, want ErrDatasetNotFound naming %s version 1", err, dv.ID)
	}
}
