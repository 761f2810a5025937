package server

import (
	"bufio"
	"io"
	"net/http"
	"strings"

	"cvcp/internal/dataset"
)

// datasetCreateRequest is the JSON document of POST /v1/datasets. CSV,
// when non-empty, seeds the dataset with an initial row batch (version 1);
// an empty CSV registers an empty dataset at version 0.
type datasetCreateRequest struct {
	Name     string `json:"name"`
	HasLabel bool   `json:"has_label"`
	CSV      string `json:"csv"`
}

// createDataset handles POST /v1/datasets.
func (a *api) createDataset(w http.ResponseWriter, r *http.Request) {
	maxBody := a.m.Config().MaxBodyBytes
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	var req datasetCreateRequest
	if apiErr := decodeStrictJSON(r.Body, &req); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	var initial *dataset.RowBatch
	if req.CSV != "" {
		ds, apiErr := parseCSV(req.Name, strings.NewReader(req.CSV), req.HasLabel, maxBody)
		if apiErr != nil {
			writeError(w, apiErr)
			return
		}
		initial = &dataset.RowBatch{Rows: ds.X, Labels: ds.Y}
	}
	v, err := a.m.CreateDataset(req.Name, req.HasLabel, initial)
	if err != nil {
		writeManagerError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/datasets/"+v.ID)
	writeJSON(w, http.StatusCreated, v)
}

// datasetListResponse is the GET /v1/datasets body.
type datasetListResponse struct {
	Datasets []DatasetView `json:"datasets"`
}

// listDatasets handles GET /v1/datasets.
func (a *api) listDatasets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, datasetListResponse{Datasets: a.m.ListDatasets()})
}

// getDataset handles GET /v1/datasets/{id}.
func (a *api) getDataset(w http.ResponseWriter, r *http.Request) {
	v, err := a.m.GetDataset(r.PathValue("id"))
	if err != nil {
		writeManagerError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// deleteDataset handles DELETE /v1/datasets/{id}: the dataset, its row
// batches and its cached cell scores all go.
func (a *api) deleteDataset(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := a.m.DeleteDataset(id); err != nil {
		writeManagerError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "deleted": true})
}

// appendRows handles POST /v1/datasets/{id}/rows. Two body shapes are
// accepted: an encoded row batch (the cmd/datagen -append file format,
// sniffed by its header) or plain CSV rows in the dataset's column
// layout. The response is the dataset view at the new version.
func (a *api) appendRows(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	cur, err := a.m.GetDataset(id)
	if err != nil {
		writeManagerError(w, err)
		return
	}
	maxBody := a.m.Config().MaxBodyBytes
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	b, apiErr := readRowBatch(r.Body, cur.HasLabel, maxBody)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	v, err := a.m.AppendRows(id, b)
	if err != nil {
		writeManagerError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// readRowBatch decodes an append body: an encoded row batch when the
// magic header matches, CSV rows (under the dataset's label layout)
// otherwise.
func readRowBatch(r io.Reader, hasLabel bool, maxBody int64) (dataset.RowBatch, *apiError) {
	br := bufio.NewReader(r)
	peek, _ := br.Peek(len(dataset.RowBatchMagic))
	if string(peek) == dataset.RowBatchMagic {
		b, err := dataset.DecodeRowBatch(br, maxBody)
		if err != nil {
			if apiErr := asSizeError(err); apiErr != nil {
				return dataset.RowBatch{}, apiErr
			}
			return dataset.RowBatch{}, badRequest("bad_csv", "malformed row batch: %v", err)
		}
		if hasLabel != (b.Labels != nil) {
			return dataset.RowBatch{}, badRequest("invalid_request", "row batch label layout does not match the dataset")
		}
		return b, nil
	}
	ds, apiErr := parseCSV("rows", br, hasLabel, maxBody)
	if apiErr != nil {
		return dataset.RowBatch{}, apiErr
	}
	return dataset.RowBatch{Rows: ds.X, Labels: ds.Y}, nil
}
