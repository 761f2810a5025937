package server

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"cvcp/internal/dataset"
)

// maxBatchDatasets bounds how many datasets one batch submission may
// carry; each dataset becomes a full selection job, so a larger batch is
// better split across requests anyway.
const maxBatchDatasets = 64

// BatchItem is one validated member of a batch submission: a dataset plus
// the (shared, per-dataset validated) job spec it runs under.
type BatchItem struct {
	Spec    Spec
	Dataset *dataset.Dataset
}

// BatchView is the aggregate JSON form of a batch: per-item job views plus
// status counts. Total counts every job ever in the batch; Evicted counts
// members whose finished jobs have aged out of the retention window (they
// no longer appear in Jobs).
type BatchView struct {
	ID      string         `json:"id"`
	Created time.Time      `json:"created"`
	Total   int            `json:"total"`
	Evicted int            `json:"evicted,omitempty"`
	Counts  map[Status]int `json:"counts"`
	Done    bool           `json:"done"`
	Jobs    []JobView      `json:"jobs"`
}

// batchRequest is the JSON document of POST /v1/batches: N datasets
// sharing one option set, the single-job JSON submission's options.
type batchRequest struct {
	jobOptions
	Datasets []batchDataset `json:"datasets"`
}

// batchDataset is one dataset of a batch submission.
type batchDataset struct {
	Name     string `json:"name"`
	CSV      string `json:"csv"`
	HasLabel bool   `json:"has_label"`
}

// parseBatchSubmission extracts the validated items of a POST /v1/batches
// request: the shared options become one base spec, then every dataset is
// parsed and the spec validated against it (constraint indices and label
// requirements are per-dataset properties).
func parseBatchSubmission(r *http.Request, maxBody int64) ([]BatchItem, *apiError) {
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		return nil, badRequest("invalid_request", "batch submissions are JSON documents (got Content-Type %q)", ct)
	}
	var req batchRequest
	if apiErr := decodeStrictJSON(r.Body, &req); apiErr != nil {
		return nil, apiErr
	}
	if len(req.Datasets) == 0 {
		return nil, badRequest("invalid_request", `batch submissions require a non-empty "datasets" list`)
	}
	if len(req.Datasets) > maxBatchDatasets {
		return nil, badRequest("invalid_request", "%d datasets in one batch, limit %d", len(req.Datasets), maxBatchDatasets)
	}
	base, apiErr := req.spec()
	if apiErr != nil {
		return nil, apiErr
	}
	items := make([]BatchItem, 0, len(req.Datasets))
	for i, d := range req.Datasets {
		if d.CSV == "" {
			return nil, badRequest("invalid_request", `datasets[%d]: non-empty "csv" required`, i)
		}
		name := d.Name
		if name == "" {
			name = "upload"
		}
		ds, apiErr := parseCSV(name, strings.NewReader(d.CSV), d.HasLabel, maxBody)
		if apiErr != nil {
			apiErr.Message = "datasets[" + strconv.Itoa(i) + "]: " + apiErr.Message
			return nil, apiErr
		}
		spec, ds, apiErr := finishSpec(base, ds)
		if apiErr != nil {
			apiErr.Message = "datasets[" + strconv.Itoa(i) + "]: " + apiErr.Message
			return nil, apiErr
		}
		items = append(items, BatchItem{Spec: spec, Dataset: ds})
	}
	return items, nil
}

// submitBatch handles POST /v1/batches.
func (a *api) submitBatch(w http.ResponseWriter, r *http.Request) {
	maxBody := a.m.Config().MaxBodyBytes
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	items, apiErr := parseBatchSubmission(r, maxBody)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	for i := range items {
		items[i].Spec.Tenant = requestTenant(r)
	}
	view, err := a.m.SubmitBatch(items)
	if err != nil {
		writeManagerError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/batches/"+view.ID)
	writeJSON(w, http.StatusAccepted, view)
}

// getBatch handles GET /v1/batches/{id}.
func (a *api) getBatch(w http.ResponseWriter, r *http.Request) {
	view, err := a.m.GetBatch(r.PathValue("id"))
	if err != nil {
		writeError(w, &apiError{status: http.StatusNotFound, Code: "not_found", Message: "server: no such batch"})
		return
	}
	writeJSON(w, http.StatusOK, view)
}
