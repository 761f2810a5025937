package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"cvcp/internal/metrics"
)

// NewHandler returns the HTTP API over the manager. When the manager's
// config names tenants, every /v1 route requires one of their API keys;
// /healthz and /metrics stay keyless (see auth.go).
func NewHandler(m *Manager) http.Handler {
	a := &api{m: m, keys: map[string]Tenant{}}
	for _, t := range m.Config().Tenants {
		a.keys[t.Key] = t
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", a.authed(a.submit))
	mux.HandleFunc("GET /v1/jobs", a.authed(a.list))
	mux.HandleFunc("GET /v1/jobs/{id}", a.authed(a.get))
	mux.HandleFunc("DELETE /v1/jobs/{id}", a.authed(a.cancel))
	mux.HandleFunc("GET /v1/jobs/{id}/events", a.authed(a.events))
	mux.HandleFunc("POST /v1/batches", a.authed(a.submitBatch))
	mux.HandleFunc("GET /v1/batches/{id}", a.authed(a.getBatch))
	mux.HandleFunc("POST /v1/datasets", a.authed(a.createDataset))
	mux.HandleFunc("GET /v1/datasets", a.authed(a.listDatasets))
	mux.HandleFunc("GET /v1/datasets/{id}", a.authed(a.getDataset))
	mux.HandleFunc("DELETE /v1/datasets/{id}", a.authed(a.deleteDataset))
	mux.HandleFunc("POST /v1/datasets/{id}/rows", a.authed(a.appendRows))
	mux.HandleFunc("GET /healthz", a.health)
	if !m.Config().DisableMetrics {
		mux.Handle("GET /metrics", metrics.Handler())
	}
	return mux
}

type api struct {
	m    *Manager
	keys map[string]Tenant // API key -> tenant; empty means auth disabled
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, e *apiError) {
	writeJSON(w, e.status, map[string]*apiError{"error": e})
}

// writeManagerError maps a Manager error to its API response by the
// sentinel it wraps. An error that wraps none of them is the server's
// own failure (a store write, say), so it answers 500.
func writeManagerError(w http.ResponseWriter, err error) {
	status, code := http.StatusInternalServerError, "internal"
	switch {
	case errors.Is(err, ErrDatasetNotFound):
		status, code = http.StatusNotFound, "not_found"
	case errors.Is(err, ErrRowsRejected):
		status, code = http.StatusBadRequest, "invalid_request"
	case errors.Is(err, ErrQueueFull):
		status, code = http.StatusTooManyRequests, "queue_full"
	case errors.Is(err, ErrTenantQuota):
		status, code = http.StatusTooManyRequests, "quota_exceeded"
	case errors.Is(err, ErrDraining):
		status, code = http.StatusServiceUnavailable, "draining"
	}
	writeError(w, &apiError{status: status, Code: code, Message: err.Error()})
}

func (a *api) submit(w http.ResponseWriter, r *http.Request) {
	maxBody := a.m.Config().MaxBodyBytes
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	spec, ds, apiErr := parseSubmission(r, maxBody)
	if apiErr == nil && spec.DatasetID != "" {
		// Dataset-referencing job: materialize the pinned snapshot (this
		// also writes the resolved version into the spec) and validate
		// the options against it — the step inline-CSV submissions ran
		// inside the parser.
		ds, apiErr = a.m.SnapshotForJob(&spec)
		if apiErr == nil {
			spec, ds, apiErr = finishSpec(spec, ds)
		}
	}
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	spec.Tenant = requestTenant(r)
	j, err := a.m.Submit(spec, ds)
	if err != nil {
		writeManagerError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID())
	writeJSON(w, http.StatusAccepted, j.View())
}

// jobListResponse is the GET /v1/jobs body. NextCursor, when non-empty,
// is passed back as ?cursor= to fetch the next page; its absence means the
// listing is exhausted.
type jobListResponse struct {
	Jobs       []JobView `json:"jobs"`
	NextCursor string    `json:"next_cursor,omitempty"`
}

func (a *api) list(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 0
	if s := q.Get("limit"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			writeError(w, badRequest("invalid_request", "option %q: want a non-negative integer", "limit"))
			return
		}
		limit = v
	}
	views, next := a.m.ListPage(q.Get("cursor"), limit)
	writeJSON(w, http.StatusOK, jobListResponse{Jobs: views, NextCursor: next})
}

func (a *api) get(w http.ResponseWriter, r *http.Request) {
	j, err := a.m.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, &apiError{status: http.StatusNotFound, Code: "not_found", Message: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

func (a *api) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	status, err := a.m.Cancel(id)
	if err != nil {
		writeError(w, &apiError{status: http.StatusNotFound, Code: "not_found", Message: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "status": status})
}

func (a *api) health(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "jobs": a.m.Len()})
}
