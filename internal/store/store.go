// Package store is the job persistence layer of the CVCP selection
// service: a small key-value contract (Store) over serialized job records,
// plus a per-job append-only event log (EventLog), with cursor
// pagination, and two implementations —
//
//   - Memory: maps, for servers that accept losing state on restart;
//   - File: an append-only JSONL write-ahead log in a directory. Opened
//     by Open, it belongs to one process and compacts into a periodic
//     snapshot, so a server restarted with the same directory replays
//     its finished jobs — event histories included — and re-queues the
//     interrupted ones. Opened by OpenShared, it is one handle of a log
//     that several processes (a coordinator and its workers) share
//     under a file lock.
//
// The store is deliberately ignorant of what a job is. A Record carries
// the fields every implementation needs for ordering and lifecycle
// (ID, Status, timestamps) and treats the job's specification, dataset
// payload and result as opaque JSON blobs supplied by the caller
// (internal/server). Events are equally opaque: a sequence number for
// scan-since-seq reads plus a serialized payload. That is the seam that
// keeps the job manager storage-agnostic: swapping in a sharded or
// remote store is a new implementation of this interface, not a manager
// rewrite.
//
// # Ordering and cursors
//
// List returns records in ascending ID order. IDs are expected to be
// zero-padded so that lexicographic order equals submission order (the
// server uses "job-000000042"). A cursor is simply the last ID of the
// previous page: List(cursor, limit) returns records with ID > cursor.
// The empty cursor starts from the beginning; an empty next cursor means
// the listing is exhausted. Cursors stay valid across restarts and across
// record deletions — a deleted record is skipped, never an error.
package store

import (
	"encoding/json"
	"errors"
	"strings"
	"time"
)

// ErrClosed is returned by every operation on a closed store.
var ErrClosed = errors.New("store: closed")

// Record is one persisted job. Spec, Dataset and Result are opaque to the
// store: the server serializes whatever it needs to rebuild a job into
// them. Dataset is present only while a job might still run (the server
// drops it from terminal records, so finished jobs do not hold their
// input forever).
type Record struct {
	// ID is the unique, zero-padded job identifier; it defines the
	// listing order.
	ID string `json:"id"`
	// Batch is the owning batch ID, empty for individually submitted
	// jobs. Batch membership is rebuilt from this field on replay.
	Batch string `json:"batch,omitempty"`
	// Status is the job lifecycle state ("queued", "running", "done",
	// "failed", "cancelled"). The store does not interpret it beyond
	// handing it back.
	Status   string    `json:"status"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
	// Error is the failure message of a failed job.
	Error string `json:"error,omitempty"`
	// Spec is the serialized job specification (algorithm, candidate
	// parameters, folds, seed, supervision).
	Spec json.RawMessage `json:"spec,omitempty"`
	// Dataset is the serialized input dataset, retained only for
	// non-terminal records so an interrupted job can be re-queued.
	Dataset json.RawMessage `json:"dataset,omitempty"`
	// Result is the serialized selection outcome of a done job.
	Result json.RawMessage `json:"result,omitempty"`
}

// Clone returns a deep copy of the record (the RawMessage fields are
// copied, so the caller may retain or mutate the original freely).
func (r Record) Clone() Record {
	c := r
	c.Spec = append(json.RawMessage(nil), r.Spec...)
	c.Dataset = append(json.RawMessage(nil), r.Dataset...)
	c.Result = append(json.RawMessage(nil), r.Result...)
	return c
}

// cloneForList is Clone minus the Dataset payload — List's contract.
// Listings are hot and dataset payloads large; copying megabytes per page
// only to render id/status/spec would dominate every listing request.
func (r Record) cloneForList() Record {
	c := r
	c.Dataset = nil
	c.Spec = append(json.RawMessage(nil), r.Spec...)
	c.Result = append(json.RawMessage(nil), r.Result...)
	return c
}

// Event is one persisted entry of a job's event log. Data is the opaque
// serialized event supplied by the caller (the server stores its SSE
// event JSON); Seq is the monotonically increasing per-job sequence
// number that scan-since-seq reads and Last-Event-ID resume key on.
// Data is fully opaque: the file store's WAL frames every line with a
// length and CRC (see framing.go), so crash recovery classifies damage
// from frame structure, never from payload bytes — a payload may carry
// any byte sequence, including ones that look like record-entry keys.
type Event struct {
	Seq  int             `json:"seq"`
	Data json.RawMessage `json:"data"`
}

func (e Event) clone() Event {
	e.Data = append(json.RawMessage(nil), e.Data...)
	return e
}

func cloneEvents(events []Event) []Event {
	out := make([]Event, len(events))
	for i, e := range events {
		out[i] = e.clone()
	}
	return out
}

// EventLog is the per-job event stream half of the store: an append-only
// log per job ID, scanned by sequence number. Callers append events with
// strictly increasing Seq per job; implementations preserve append order.
//
// Durability is looser than for records: a durable implementation may
// coalesce the fsyncs of consecutive appends (so per-progress-event
// appends never serialize on disk latency), meaning a crash can lose a
// recently appended suffix of a log — never a middle. Record writes
// (Put, Delete) act as barriers: every event appended before a returned
// Put is durable with it.
type EventLog interface {
	// AppendEvents appends the batch to the event log of the job with
	// the given id, in order. An empty batch is a no-op.
	AppendEvents(id string, events []Event) error
	// EventsSince returns the job's events with Seq > afterSeq, in
	// append order. A job with no log yields an empty slice, not an
	// error; afterSeq 0 scans the whole log.
	EventsSince(id string, afterSeq int) ([]Event, error)
}

// An Updater is a Store that can apply an atomic read-modify-write to a
// single record — the compare-and-swap primitive shard leases in
// internal/dist are built on. fn receives a copy of the current record
// (and whether one exists) and decides the outcome: write=true installs
// the returned record (whose ID must equal id), write=false leaves the
// store untouched, and a non-nil error aborts without writing and is
// returned verbatim. No concurrent Put, Delete or Update of the same
// store interleaves with the read-modify-write; for a File opened by
// OpenShared, the guarantee holds across processes. Update returns the
// record as of the call's completion. Memory and File are Updaters.
type Updater interface {
	Update(id string, fn func(cur Record, ok bool) (Record, bool, error)) (Record, error)
}

// Store persists job records and their event logs. Implementations must
// be safe for concurrent use. Put with an existing ID overwrites; Delete
// of a missing ID is a no-op; Get reports presence through its second
// return value rather than an error.
type Store interface {
	EventLog
	// Put inserts or overwrites the record under rec.ID.
	Put(rec Record) error
	// Get returns the record with the given ID, and whether it exists.
	Get(id string) (Record, bool, error)
	// List returns up to limit records with ID > cursor in ascending ID
	// order, plus the cursor for the next page (empty when the listing
	// is exhausted). limit <= 0 means no limit. Listed records omit the
	// Dataset payload (use Get for the full record) — listings are hot
	// and dataset payloads large.
	List(cursor string, limit int) ([]Record, string, error)
	// Delete removes the record under id, if present, along with the
	// job's event log — a deleted job's events are meaningless on their
	// own, and dropping them here keeps eviction a single call.
	Delete(id string) error
	// Len reports how many records are resident.
	Len() (int, error)
	// Close releases the store's resources; for durable stores it also
	// compacts. Every later operation fails with ErrClosed.
	Close() error
}

// DeletePrefix deletes every record whose ID extends prefix and returns
// how many it removed. It pages through List from the prefix itself and
// stops at the first ID that lacks it: IDs sort ascending, so every
// later ID sorts after the whole prefix range. Dataset deletion sweeps
// a dataset's row batches and cell records with it, and the coordinator
// a job's shard records.
func DeletePrefix(s Store, prefix string) (int, error) {
	removed := 0
	cursor := prefix
	for {
		recs, next, err := s.List(cursor, 64)
		if err != nil {
			return removed, err
		}
		for _, rec := range recs {
			if !strings.HasPrefix(rec.ID, prefix) {
				return removed, nil
			}
			if err := s.Delete(rec.ID); err != nil {
				return removed, err
			}
			removed++
		}
		if next == "" {
			return removed, nil
		}
		cursor = next
	}
}
