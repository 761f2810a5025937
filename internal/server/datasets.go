package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"cvcp/internal/dataset"
	"cvcp/internal/store"
)

// Dataset record conventions. A versioned dataset lives in the store as
// one meta record ("ds-000000042", Status "dataset") plus one row-batch
// record per append ("dsb-000000042-000000003", Status "dataset-rows",
// the encoded batch in the record's Dataset field). Lexicographic store
// order replays metas before batches and batches in version order, so
// the registry rebuilds every dataset by appending its batches exactly
// as they were submitted. Cell-cache records cite the meta record ID as
// their owner (store.CellID), which is what ties a dataset's cached cell
// scores to its lifetime.
const (
	datasetPrefix      = "ds-"
	datasetBatchPrefix = "dsb-"
	datasetStatus      = "dataset"
	datasetRowsStatus  = "dataset-rows"
)

var (
	// ErrDatasetNotFound marks an unknown (or deleted) dataset ID.
	ErrDatasetNotFound = errors.New("server: no such dataset")
	// ErrRowsRejected marks a row batch the dataset refuses: an empty
	// batch, a label or column layout that differs from the dataset's,
	// or a non-finite value.
	ErrRowsRejected = errors.New("server: row batch rejected")
)

// rowsRejected wraps a row batch's validation error so that it matches
// ErrRowsRejected while its message stays the validator's own.
type rowsRejected struct{ error }

func (r rowsRejected) Is(target error) bool { return target == ErrRowsRejected }
func (r rowsRejected) Unwrap() error        { return r.error }

// datasetMetaRecord is the Spec payload of a dataset meta record.
type datasetMetaRecord struct {
	Name     string `json:"name"`
	HasLabel bool   `json:"has_label"`
}

// datasetBatchMeta is the Spec payload of a row-batch record: which
// dataset it extends and the version it produced (redundant with the
// record ID, but self-describing for operators inspecting the store).
type datasetBatchMeta struct {
	Dataset string `json:"dataset"`
	Version int    `json:"version"`
}

// managedDataset is one live versioned dataset. The Versioned log is
// guarded by the manager's dsMu; appendMu additionally serializes
// appends per dataset so row batches hit the store in version order
// without holding dsMu across the write.
type managedDataset struct {
	id      string
	created time.Time
	v       *dataset.Versioned

	appendMu sync.Mutex
}

// DatasetView is the JSON form of a dataset's state.
type DatasetView struct {
	ID       string    `json:"id"`
	Name     string    `json:"name"`
	HasLabel bool      `json:"has_label"`
	Version  int       `json:"version"`
	Rows     int       `json:"rows"`
	Dims     int       `json:"dims"`
	Created  time.Time `json:"created"`
}

func (m *Manager) datasetViewLocked(md *managedDataset) DatasetView {
	return DatasetView{
		ID:       md.id,
		Name:     md.v.Name(),
		HasLabel: md.v.HasLabel(),
		Version:  md.v.Version(),
		Rows:     md.v.N(),
		Dims:     md.v.Dims(),
		Created:  md.created,
	}
}

// datasetBatchID returns the row-batch record ID for one version of a
// dataset. dsID is the meta record ID ("ds-000000042"); the batch seq is
// the version the batch produced, zero-padded so lexicographic store
// order equals version order for the lifetime of a durable store.
func datasetBatchID(dsID string, version int) string {
	return fmt.Sprintf("%s%s-%09d", datasetBatchPrefix, strings.TrimPrefix(dsID, datasetPrefix), version)
}

// datasetOfBatchID recovers the meta record ID from a batch record ID.
func datasetOfBatchID(batchID string) (string, bool) {
	rest, ok := strings.CutPrefix(batchID, datasetBatchPrefix)
	if !ok {
		return "", false
	}
	i := strings.IndexByte(rest, '-')
	if i < 0 {
		return "", false
	}
	return datasetPrefix + rest[:i], true
}

// datasetBatchPayload is the Dataset document of a batch record. The
// record's Dataset field is json.RawMessage (the durable stores marshal
// whole records), so the encoded batch travels as a JSON string rather
// than raw bytes.
type datasetBatchPayload struct {
	// Batch is the EncodeRowBatch form of the appended rows — full-precision
	// CSV, so a replayed batch is bit-identical to the appended one.
	Batch string `json:"batch"`
}

// encodeBatchRecord builds the store record of one appended row batch.
func encodeBatchRecord(dsID string, version int, b dataset.RowBatch, created time.Time) (store.Record, error) {
	var buf bytes.Buffer
	if err := dataset.EncodeRowBatch(&buf, b); err != nil {
		return store.Record{}, err
	}
	payload, err := json.Marshal(datasetBatchPayload{Batch: buf.String()})
	if err != nil {
		return store.Record{}, err
	}
	meta, err := json.Marshal(datasetBatchMeta{Dataset: dsID, Version: version})
	if err != nil {
		return store.Record{}, err
	}
	return store.Record{
		ID:      datasetBatchID(dsID, version),
		Status:  datasetRowsStatus,
		Created: created,
		Spec:    meta,
		Dataset: payload,
	}, nil
}

// decodeBatchRecord decodes the rows of one row-batch record, the
// inverse of encodeBatchRecord. Startup replay and a worker rebuilding a
// job's pinned rows both read batches through it.
func decodeBatchRecord(rec store.Record) (dataset.RowBatch, error) {
	var payload datasetBatchPayload
	if err := json.Unmarshal(rec.Dataset, &payload); err != nil {
		return dataset.RowBatch{}, err
	}
	return dataset.DecodeRowBatch(strings.NewReader(payload.Batch), 0)
}

// CreateDataset registers a new versioned dataset, optionally seeded
// with an initial row batch (initial may be nil for an empty dataset at
// version 0). The meta record is durably persisted before the dataset
// becomes visible. A create whose initial batch fails to append deletes
// the dataset again, so it leaves no dataset unless that delete fails.
func (m *Manager) CreateDataset(name string, hasLabel bool, initial *dataset.RowBatch) (DatasetView, error) {
	if name == "" {
		name = "dataset"
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return DatasetView{}, ErrDraining
	}
	m.nextDataset++
	id := fmt.Sprintf("%s%09d", datasetPrefix, m.nextDataset)
	m.mu.Unlock()

	created := time.Now()
	spec, err := json.Marshal(datasetMetaRecord{Name: name, HasLabel: hasLabel})
	if err != nil {
		return DatasetView{}, err
	}
	if err := m.store.Put(store.Record{ID: id, Status: datasetStatus, Created: created, Spec: spec}); err != nil {
		return DatasetView{}, fmt.Errorf("server: persisting dataset: %w", err)
	}
	md := &managedDataset{id: id, created: created, v: dataset.NewVersioned(name, hasLabel)}
	m.dsMu.Lock()
	m.datasets[id] = md
	m.dsMu.Unlock()
	mDatasetVersion.With(id).Set(0)
	if initial == nil {
		m.dsMu.Lock()
		defer m.dsMu.Unlock()
		return m.datasetViewLocked(md), nil
	}
	v, err := m.AppendRows(id, *initial)
	if err != nil {
		// The append's error is the one to report; a failed delete leaves
		// the dataset registered, as DeleteDataset documents.
		_ = m.DeleteDataset(id)
	}
	return v, err
}

// AppendRows appends one row batch to a dataset, returning the view at
// the new version. The batch record is durably persisted before the
// in-memory log grows, so a crash between the two replays the append
// rather than losing rows a client was told exist.
func (m *Manager) AppendRows(id string, b dataset.RowBatch) (DatasetView, error) {
	m.dsMu.Lock()
	md, ok := m.datasets[id]
	m.dsMu.Unlock()
	if !ok {
		return DatasetView{}, ErrDatasetNotFound
	}

	md.appendMu.Lock()
	defer md.appendMu.Unlock()
	m.dsMu.Lock()
	version := md.v.Version() + 1
	// Validate against the live log before touching the store, so a bad
	// batch never leaves a record behind; Append re-validates on commit.
	err := md.v.CanAppend(b)
	m.dsMu.Unlock()
	if err != nil {
		return DatasetView{}, rowsRejected{err}
	}
	rec, err := encodeBatchRecord(id, version, b, time.Now())
	if err != nil {
		return DatasetView{}, err
	}
	//cvcplint:ignore lockio appendMu exists to serialize exactly this write: row batches of one dataset must reach the WAL in version order; the registry's shared dsMu (and the manager's m.mu) are not held
	if err := m.store.Put(rec); err != nil {
		return DatasetView{}, fmt.Errorf("server: persisting row batch: %w", err)
	}
	m.dsMu.Lock()
	defer m.dsMu.Unlock()
	if _, err := md.v.Append(b); err != nil {
		return DatasetView{}, err
	}
	mDatasetVersion.With(id).Set(int64(md.v.Version()))
	return m.datasetViewLocked(md), nil
}

// GetDataset returns a dataset's current view.
func (m *Manager) GetDataset(id string) (DatasetView, error) {
	m.dsMu.Lock()
	defer m.dsMu.Unlock()
	md, ok := m.datasets[id]
	if !ok {
		return DatasetView{}, ErrDatasetNotFound
	}
	return m.datasetViewLocked(md), nil
}

// ListDatasets returns every registered dataset's view in ID order.
func (m *Manager) ListDatasets() []DatasetView {
	m.dsMu.Lock()
	out := make([]DatasetView, 0, len(m.datasets))
	for _, md := range m.datasets {
		out = append(out, m.datasetViewLocked(md))
	}
	m.dsMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// DeleteDataset removes a dataset: the registry entry, the meta record,
// every row-batch record and every cell-cache record owned by the
// dataset. The meta record is deleted first so a crash mid-delete
// leaves orphans (batches, cells) that the startup sweeps collect, never
// a half-alive dataset. When that delete fails the dataset stays, and
// the registry entry and version gauge come back. A single-node job
// submitted before the delete holds its snapshot in memory and runs on
// it; its remaining cache writes become orphans too. A job that must
// read its rows again — re-queued by a restart, or resolved by a
// distributed worker — fails with an error naming the dataset and its
// pinned version.
func (m *Manager) DeleteDataset(id string) error {
	m.dsMu.Lock()
	md, ok := m.datasets[id]
	delete(m.datasets, id)
	m.dsMu.Unlock()
	if !ok {
		return ErrDatasetNotFound
	}
	mDatasetVersion.Delete(id)
	// Cover the deleted ID in the counter high-water mark before any
	// record disappears, so a restart cannot re-issue it.
	m.applyEviction(nil, true)
	if err := m.store.Delete(id); err != nil {
		m.dsMu.Lock()
		m.datasets[id] = md
		mDatasetVersion.With(id).Set(int64(md.v.Version()))
		m.dsMu.Unlock()
		return fmt.Errorf("server: deleting dataset %s: %w", id, err)
	}
	// Both sweeps are best effort: a failed one leaves orphans, as a
	// crash mid-delete does.
	_, _ = store.DeletePrefix(m.store, datasetBatchPrefix+strings.TrimPrefix(id, datasetPrefix)+"-")
	// A cell ID with an empty key is the owner's cell-ID prefix.
	if n, err := store.DeletePrefix(m.store, store.CellID(id, "")); err == nil && n > 0 {
		mDatasetCellsSwept.Add(uint64(n))
	}
	return nil
}

// restoreDatasetMeta rebuilds one dataset registry entry during startup
// replay (metas replay before their batches — store order). Runs before
// any concurrency exists, so it takes no locks.
func (m *Manager) restoreDatasetMeta(rec store.Record) {
	if n, ok := numericSuffix(rec.ID, datasetPrefix); ok && n > m.nextDataset {
		m.nextDataset = n
	}
	var meta datasetMetaRecord
	if err := json.Unmarshal(rec.Spec, &meta); err != nil {
		return // corrupt meta: the dataset's batches and cells become orphans
	}
	m.datasets[rec.ID] = &managedDataset{
		id:      rec.ID,
		created: rec.Created,
		v:       dataset.NewVersioned(meta.Name, meta.HasLabel),
	}
	mDatasetVersion.With(rec.ID).Set(0)
}

// restoreDatasetRows replays one row-batch record into its dataset's
// log. Listings omit the Dataset payload, so the full record is fetched.
// A batch whose dataset meta is gone (a crash mid-delete) is an orphan
// and is deleted durably, mirroring the store's own orphan sweeps.
func (m *Manager) restoreDatasetRows(rec store.Record) {
	dsID, ok := datasetOfBatchID(rec.ID)
	if !ok {
		return
	}
	md, ok := m.datasets[dsID]
	if !ok {
		_ = m.store.Delete(rec.ID)
		return
	}
	full, ok, err := m.store.Get(rec.ID)
	if err != nil || !ok {
		return
	}
	b, err := decodeBatchRecord(full)
	if err != nil {
		return // corrupt batch: the dataset resumes at the last good version
	}
	if _, err := md.v.Append(b); err != nil {
		return
	}
	mDatasetVersion.With(dsID).Set(int64(md.v.Version()))
}

// SnapshotForJob resolves a dataset-referencing job submission: it pins
// the version (0 means the current one, written back into the spec so
// the persisted job replays against the same rows) and materializes the
// pinned snapshot the job will run on.
func (m *Manager) SnapshotForJob(spec *Spec) (*dataset.Dataset, *apiError) {
	m.dsMu.Lock()
	defer m.dsMu.Unlock()
	md, ok := m.datasets[spec.DatasetID]
	if !ok {
		return nil, &apiError{status: 404, Code: "not_found", Message: fmt.Sprintf("server: no dataset %q", spec.DatasetID)}
	}
	if spec.DatasetVersion == 0 {
		spec.DatasetVersion = md.v.Version()
	}
	ds, err := md.v.Snapshot(spec.DatasetVersion)
	if err != nil {
		return nil, badRequest("invalid_request", "%v", err)
	}
	return ds, nil
}

// pinnedRowsError names the dataset and version a dataset job pinned
// when its rows cannot be read again.
func pinnedRowsError(spec Spec, err error) error {
	return fmt.Errorf("server: rows of dataset %s version %d: %w", spec.DatasetID, spec.DatasetVersion, err)
}

// storedSnapshot rebuilds the snapshot of dataset id at version from the
// store alone, as a worker with no registry must: the meta record, then
// one Get per row-batch record 1..version, appended in version order as
// the registry appended them, so the snapshot is bit-identical to the
// registry's.
func storedSnapshot(s store.Store, id string, version int) (*dataset.Dataset, error) {
	rec, ok, err := s.Get(id)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, ErrDatasetNotFound
	}
	var meta datasetMetaRecord
	if err := json.Unmarshal(rec.Spec, &meta); err != nil {
		return nil, err
	}
	v := dataset.NewVersioned(meta.Name, meta.HasLabel)
	for n := 1; n <= version; n++ {
		rec, ok, err := s.Get(datasetBatchID(id, n))
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("no row batch of version %d", n)
		}
		b, err := decodeBatchRecord(rec)
		if err != nil {
			return nil, err
		}
		if _, err := v.Append(b); err != nil {
			return nil, err
		}
	}
	return v.Snapshot(version)
}
