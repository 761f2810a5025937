package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

func decodeBatch(t *testing.T, resp *http.Response) BatchView {
	t.Helper()
	defer resp.Body.Close()
	var v BatchView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func pollBatch(t *testing.T, ts *httptest.Server, id string) BatchView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/batches/" + id)
		if err != nil {
			t.Fatal(err)
		}
		v := decodeBatch(t, resp)
		if v.Done {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("batch %s never finished", id)
	return BatchView{}
}

// A 3-dataset batch must return exactly the per-dataset selections that
// three individual submissions with the same options and seed return.
func TestBatchMatchesIndividualSubmissions(t *testing.T) {
	ts, _ := newTestServer(t, Config{MaxRunningJobs: 2, WorkerBudget: 4, QueueDepth: 16})

	var csvs []string
	for _, n := range []int{24, 30, 36} {
		_, csvText := testDataset(t, n)
		csvs = append(csvs, csvText)
	}
	datasets := make([]map[string]any, len(csvs))
	for i, c := range csvs {
		datasets[i] = map[string]any{"name": fmt.Sprintf("ds-%d", i), "csv": c, "has_label": true}
	}
	body, _ := json.Marshal(map[string]any{
		"datasets": datasets, "algorithm": "fosc", "params": []int{3, 6},
		"folds": 2, "seed": 5, "label_fraction": 0.5,
	})
	resp, err := http.Post(ts.URL+"/v1/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit: status %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/batches/") {
		t.Fatalf("batch Location %q", loc)
	}
	bv := decodeBatch(t, resp)
	if bv.Total != 3 || len(bv.Jobs) != 3 {
		t.Fatalf("fresh batch view: %+v", bv)
	}

	final := pollBatch(t, ts, bv.ID)
	if final.Counts[StatusDone] != 3 {
		t.Fatalf("batch counts: %+v", final.Counts)
	}
	byName := map[string]JobView{}
	for _, jv := range final.Jobs {
		if jv.Batch != bv.ID {
			t.Fatalf("batch member %s reports batch %q", jv.ID, jv.Batch)
		}
		byName[jv.Dataset] = jv
	}

	// The same three datasets as individual jobs, same options and seed.
	for i, c := range csvs {
		url := ts.URL + "/v1/jobs?algorithm=fosc&params=3,6&folds=2&seed=5&label_fraction=0.5&has_label=true&name=solo-" + fmt.Sprint(i)
		resp, err := http.Post(url, "text/csv", strings.NewReader(c))
		if err != nil {
			t.Fatal(err)
		}
		jv := decodeJob(t, resp.Body)
		resp.Body.Close()
		solo := pollJob(t, ts, jv.ID, StatusDone)
		batched := byName[fmt.Sprintf("ds-%d", i)]
		if batched.Result == nil || solo.Result == nil {
			t.Fatalf("missing result: batch %v solo %v", batched.Result, solo.Result)
		}
		if batched.Result.BestParam != solo.Result.BestParam || batched.Result.BestScore != solo.Result.BestScore {
			t.Fatalf("dataset %d: batch selected (%d, %v), individual selected (%d, %v)", i,
				batched.Result.BestParam, batched.Result.BestScore, solo.Result.BestParam, solo.Result.BestScore)
		}
		for k, l := range solo.Result.FinalLabels {
			if batched.Result.FinalLabels[k] != l {
				t.Fatalf("dataset %d, label %d: batch %d, individual %d", i, k, batched.Result.FinalLabels[k], l)
			}
		}
	}
}

func TestBatchValidation(t *testing.T) {
	ts, _ := newTestServer(t, Config{QueueDepth: 2})
	_, csvText := testDataset(t, 24)

	post := func(body any) *http.Response {
		t.Helper()
		b, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+"/v1/batches", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// No datasets.
	resp := post(map[string]any{"algorithm": "fosc", "label_fraction": 0.5})
	if e := decodeAPIError(t, resp); resp.StatusCode != http.StatusBadRequest || e.Code != "invalid_request" {
		t.Fatalf("empty batch: status %d code %q", resp.StatusCode, e.Code)
	}

	// A bad dataset names its index.
	resp = post(map[string]any{
		"algorithm": "fosc", "label_fraction": 0.5,
		"datasets": []map[string]any{
			{"csv": csvText, "has_label": true},
			{"csv": "not,a,number\n1,2\n", "has_label": true},
		},
	})
	if e := decodeAPIError(t, resp); e.Code != "bad_csv" || !strings.Contains(e.Message, "datasets[1]") {
		t.Fatalf("bad member: code %q message %q", e.Code, e.Message)
	}

	// A batch larger than the queue space is rejected whole.
	many := make([]map[string]any, 3)
	for i := range many {
		many[i] = map[string]any{"csv": csvText, "has_label": true}
	}
	resp = post(map[string]any{"algorithm": "fosc", "label_fraction": 0.5, "datasets": many})
	if e := decodeAPIError(t, resp); resp.StatusCode != http.StatusTooManyRequests || e.Code != "queue_full" {
		t.Fatalf("oversized batch: status %d code %q", resp.StatusCode, e.Code)
	}

	// Unknown batch → 404.
	gresp, err := http.Get(ts.URL + "/v1/batches/batch-999999")
	if err != nil {
		t.Fatal(err)
	}
	if e := decodeAPIError(t, gresp); gresp.StatusCode != http.StatusNotFound || e.Code != "not_found" {
		t.Fatalf("missing batch: status %d code %q", gresp.StatusCode, e.Code)
	}
}

// A batch takes every JSON job option, matrix32 and eps included: each
// item's result equals the same job submitted alone, and a grid that
// cannot use the option is refused for the dataset that carries it.
func TestBatchMatrix32AndEps(t *testing.T) {
	ts, _ := newTestServer(t, Config{MaxRunningJobs: 2, WorkerBudget: 4, QueueDepth: 16})
	var datasets []map[string]any
	for _, n := range []int{24, 30} {
		_, csvText := testDataset(t, n)
		datasets = append(datasets, map[string]any{"name": fmt.Sprintf("n%d", n), "csv": csvText, "has_label": true})
	}
	options := func(extra map[string]any) map[string]any {
		doc := map[string]any{"algorithm": "fosc", "params": []int{3, 6}, "folds": 2, "seed": 5, "label_fraction": 0.5}
		for k, v := range extra {
			doc[k] = v
		}
		return doc
	}
	for _, opt := range []struct {
		name  string
		value any
	}{{"matrix32", true}, {"eps", 5}} {
		batch := options(map[string]any{opt.name: opt.value, "datasets": datasets})
		resp := postJSON(t, ts.URL+"/v1/batches", batch)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: batch status %d: %+v", opt.name, resp.StatusCode, decodeAPIError(t, resp))
		}
		byName := map[string]*ResultView{}
		for _, jv := range pollBatch(t, ts, decodeBatch(t, resp).ID).Jobs {
			byName[jv.Dataset] = jv.Result
		}
		for _, d := range datasets {
			job := options(d)
			job[opt.name] = opt.value
			resp := postJSON(t, ts.URL+"/v1/jobs", job)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("%s: job status %d: %+v", opt.name, resp.StatusCode, decodeAPIError(t, resp))
			}
			jv := decodeJob(t, resp.Body)
			resp.Body.Close()
			alone := pollJob(t, ts, jv.ID, StatusDone).Result
			if got := byName[d["name"].(string)]; got == nil || !reflect.DeepEqual(*got, *alone) {
				t.Errorf("%s, dataset %s: batch result %+v, alone %+v", opt.name, d["name"], got, alone)
			}
		}

		batch["algorithm"] = "mpck"
		resp = postJSON(t, ts.URL+"/v1/batches", batch)
		want := "datasets[0]: " + opt.name + " requires a fosc candidate in the grid"
		if e := decodeAPIError(t, resp); resp.StatusCode != http.StatusBadRequest || e.Code != "invalid_request" || e.Message != want {
			t.Errorf("%s on mpck: status %d, error (%q, %q), want 400 (invalid_request, %q)", opt.name, resp.StatusCode, e.Code, e.Message, want)
		}
	}
}

// GET /v1/jobs?limit=&cursor= pages through every job in submission order.
func TestListPagination(t *testing.T) {
	_, csvText := testDataset(t, 30)
	ts, _ := newTestServer(t, Config{MaxRunningJobs: 1, WorkerBudget: 2, RetainFinished: 16})

	var ids []string
	for i := 0; i < 5; i++ {
		url := fmt.Sprintf("%s/v1/jobs?algorithm=fosc&params=3&folds=2&seed=%d&label_fraction=0.5&has_label=true", ts.URL, i+1)
		resp, err := http.Post(url, "text/csv", strings.NewReader(csvText))
		if err != nil {
			t.Fatal(err)
		}
		jv := decodeJob(t, resp.Body)
		resp.Body.Close()
		ids = append(ids, jv.ID)
		pollJob(t, ts, jv.ID, StatusDone)
	}

	var walked []string
	cursor := ""
	for page := 0; ; page++ {
		if page > 4 {
			t.Fatal("pagination never terminated")
		}
		url := ts.URL + "/v1/jobs?limit=2"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		var lr jobListResponse
		if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(lr.Jobs) > 2 {
			t.Fatalf("page of %d jobs with limit=2", len(lr.Jobs))
		}
		for _, jv := range lr.Jobs {
			walked = append(walked, jv.ID)
		}
		if lr.NextCursor == "" {
			break
		}
		cursor = lr.NextCursor
	}
	if len(walked) != len(ids) {
		t.Fatalf("pagination walked %d of %d jobs: %v", len(walked), len(ids), walked)
	}
	for i, id := range ids {
		if walked[i] != id {
			t.Fatalf("pagination order: got %v, want %v", walked, ids)
		}
	}

	// An invalid limit is a structured error.
	resp, err := http.Get(ts.URL + "/v1/jobs?limit=nope")
	if err != nil {
		t.Fatal(err)
	}
	if e := decodeAPIError(t, resp); resp.StatusCode != http.StatusBadRequest || e.Code != "invalid_request" {
		t.Fatalf("bad limit: status %d code %q", resp.StatusCode, e.Code)
	}
}

// Cancelling a queued job must free its queue slot immediately — not when
// an executor eventually pops it.
func TestQueuedCancelFreesSlotImmediately(t *testing.T) {
	ds, _ := testDataset(t, 30)
	alg := newBlockingAlg()
	RegisterAlgorithm("block-slot", alg, []int{1})
	m := NewManager(Config{MaxRunningJobs: 1, QueueDepth: 1, WorkerBudget: 1})
	defer m.Shutdown(context.Background())

	spec := quickSpec()
	spec.Algorithm = "block-slot"
	spec.Params = []int{1}
	running, err := m.Submit(spec, ds)
	if err != nil {
		t.Fatal(err)
	}
	<-alg.started // the single executor is now parked inside the running job

	queued, err := m.Submit(quickSpec(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(quickSpec(), ds); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("queue should be full: %v", err)
	}

	if st, err := m.Cancel(queued.ID()); err != nil || st != StatusCancelled {
		t.Fatalf("cancel queued: %s, %v", st, err)
	}
	// The executor is still parked, yet the slot is free right now.
	replacement, err := m.Submit(quickSpec(), ds)
	if err != nil {
		t.Fatalf("slot not freed by queued cancel: %v", err)
	}

	close(alg.release)
	m.Cancel(running.ID())
	waitTerminal(t, running)
	if s := waitTerminal(t, replacement); s != StatusDone {
		t.Fatalf("replacement job finished as %s", s)
	}
	// The cancelled job never ran.
	if v := queued.View(); v.Started != nil {
		t.Fatalf("cancelled queued job has a start time: %+v", v)
	}
}
