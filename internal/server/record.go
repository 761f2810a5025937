package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"cvcp/internal/dataset"
	"cvcp/internal/store"
)

// specRecord is the opaque Spec payload the manager persists into a
// store.Record: the job specification plus the view-level dataset identity
// (terminal records drop the dataset payload, so name and size must
// survive on their own) and the last progress counters.
type specRecord struct {
	Spec        Spec   `json:"spec"`
	DatasetName string `json:"dataset_name"`
	Objects     int    `json:"objects"`
	Done        int    `json:"done"`
	Total       int    `json:"total"`
	// LastSeq is the event sequence high-water mark at the time of the
	// record write. Record puts fsync independently of the (coalesced,
	// swallowed-on-error) event appends, so this floor survives even
	// when the event log stalls — restart seeding takes the max of the
	// replayed log and this value before applying seqRequeueGap, keeping
	// Last-Event-ID resume collision-safe across repeated crashes.
	LastSeq int `json:"last_seq,omitempty"`
}

// datasetRecord is the opaque dataset payload of a non-terminal record —
// everything needed to rebuild the dataset and re-run the job after a
// restart. WriteCSV emits full float64 precision, so the rebuilt dataset
// (and hence the re-run selection, with the persisted seed) is
// bit-identical to the original.
type datasetRecord struct {
	HasLabel bool   `json:"has_label"`
	CSV      string `json:"csv"`
}

// marshalDataset serializes a dataset into the persisted payload form.
// It is called once per submission, outside the manager lock (the CSV
// round-trip is the expensive part of persisting a job), and the result
// is reused for every non-terminal persist of that job.
func marshalDataset(ds *dataset.Dataset) []byte {
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		return nil
	}
	blob, _ := json.Marshal(datasetRecord{HasLabel: ds.Labeled(), CSV: buf.String()})
	return blob
}

// record snapshots the job as a persistable store.Record. Terminal records
// carry the result but not the dataset; live records carry the dataset so
// an interrupted job can be re-queued on restart.
func (j *Job) record() store.Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	specJSON, _ := json.Marshal(specRecord{
		Spec: j.spec, DatasetName: j.dsName, Objects: j.objects,
		Done: j.done, Total: j.total, LastSeq: j.seq,
	})
	rec := store.Record{
		ID:       j.id,
		Batch:    j.batch,
		Status:   string(j.status),
		Created:  j.created,
		Started:  j.started,
		Finished: j.finished,
		Error:    j.errMsg,
		Spec:     specJSON,
	}
	if j.status.Terminal() {
		if j.result != nil {
			rec.Result, _ = json.Marshal(j.result)
		}
	} else {
		rec.Dataset = j.dsBlob
	}
	return rec
}

// jobFromRecord rebuilds a job from a persisted record during startup
// replay. prior is the job's persisted event log (may be empty for
// stores written before event persistence existed). Terminal records
// resurrect as finished jobs — result, timestamps and full event history
// intact, so SSE replay streams the identical sequence it streamed
// before the restart. Non-terminal records — the jobs a previous process
// was killed around — rebuild their dataset and come back as queued
// jobs appending to their existing log (seq numbering continues);
// requeue reports that the caller must enqueue them. A record that
// cannot be decoded comes back as a failed job carrying the decode
// error, so corruption is visible in listings instead of silently
// dropped.
func jobFromRecord(rec store.Record, parent context.Context, log jobEventLog, prior []Event) (j *Job, requeue bool) {
	var sr specRecord
	if err := json.Unmarshal(rec.Spec, &sr); err != nil {
		return corruptJob(rec, fmt.Errorf("decoding job spec: %w", err), log, prior), false
	}
	if status := Status(rec.Status); status.Terminal() {
		return newResurrectedJob(rec, sr, status, log, prior), false
	}

	// Interrupted mid-flight: rebuild the dataset and re-queue.
	var dr datasetRecord
	if err := json.Unmarshal(rec.Dataset, &dr); err != nil {
		return corruptJob(rec, fmt.Errorf("decoding job dataset: %w", err), log, prior), false
	}
	ds, err := dataset.ReadCSV(sr.DatasetName, strings.NewReader(dr.CSV), dr.HasLabel)
	if err != nil {
		return corruptJob(rec, fmt.Errorf("rebuilding job dataset: %w", err), log, prior), false
	}
	j = newJob(rec.ID, rec.Batch, sr.Spec, ds, rec.Dataset, parent, log, prior, sr.LastSeq, true)
	j.created = rec.Created // keep the original submission time
	return j, true
}

// newResurrectedJob builds a terminal job shell from a record: no
// context, no dataset, no waiting readers — the persisted state plus
// the replayed event history. When the log already ends with the
// terminal status (the normal case for stores with event persistence)
// nothing is appended and replay is bit-identical to the pre-restart
// stream; a legacy or truncated log gets a condensed completion (the
// missing lifecycle events) appended so the stream still ends terminal.
func newResurrectedJob(rec store.Record, sr specRecord, status Status, log jobEventLog, prior []Event) *Job {
	j := &Job{
		id:       rec.ID,
		batch:    rec.Batch,
		spec:     sr.Spec,
		dsName:   sr.DatasetName,
		objects:  sr.Objects,
		created:  rec.Created,
		started:  rec.Started,
		finished: rec.Finished,
		status:   status,
		done:     sr.Done,
		total:    sr.Total,
		errMsg:   rec.Error,
		log:      log,
	}
	if len(rec.Result) > 0 {
		var res ResultView
		if err := json.Unmarshal(rec.Result, &res); err == nil {
			j.result = &res
		}
	}
	j.ctx, j.cancel = context.WithCancel(context.Background())
	j.cancel()
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seedEventsLocked(prior)
	if sr.LastSeq > j.seq {
		j.seq = sr.LastSeq // the record's fsynced high-water mark; see specRecord.LastSeq
	}
	if j.seq == 0 {
		// Legacy record (pre-event-persistence): condensed history.
		j.publishLocked(Event{Type: "status", Status: StatusQueued})
		j.publishLocked(Event{Type: "status", Status: status})
		return j
	}
	lastIsTerminal := false
	if len(prior) > 0 {
		last := prior[len(prior)-1]
		lastIsTerminal = last.Type == "status" && last.Status == status
	}
	if !lastIsTerminal {
		// Completing a truncated (or wholly lost) log: gap the seq first
		// so the appended events cannot collide with a crash-lost suffix
		// a subscriber may have seen (see seqRequeueGap).
		j.seq += seqRequeueGap
		if len(prior) == 0 {
			j.publishLocked(Event{Type: "status", Status: StatusQueued})
		}
		j.publishLocked(Event{Type: "status", Status: status})
	}
	return j
}

// corruptJob marks an undecodable record as a failed job, with no
// result, so it stays visible.
func corruptJob(rec store.Record, err error, log jobEventLog, prior []Event) *Job {
	rec.Result = nil
	j := newResurrectedJob(rec, specRecord{DatasetName: "(corrupt record)"}, StatusFailed, log, prior)
	j.errMsg = fmt.Sprintf("restored from store: %v", err)
	if j.finished.IsZero() {
		j.finished = time.Now()
	}
	return j
}

// metaID is the reserved record ID of the manager's counter high-water
// mark. It sorts before every "job-" ID and exists so that IDs of jobs
// evicted before a restart are never re-issued to new jobs (the surviving
// records alone cannot prove how far the counters had advanced).
const metaID = "_meta"

// metaRecord is the Spec payload of the metaID record.
type metaRecord struct {
	NextID    int `json:"next_id"`
	NextBatch int `json:"next_batch"`
	// NextDataset covers dataset IDs the same way. Reusing a deleted
	// dataset's ID would be benign for scores (cell cache keys are
	// content-addressed), but the high-water mark keeps IDs unambiguous
	// in logs and metrics.
	NextDataset int `json:"next_dataset,omitempty"`
}

// numericSuffix parses the numeric tail of a "prefix-000123" identifier;
// the manager uses it to resume its ID counters past everything replayed
// from the store.
func numericSuffix(id, prefix string) (int, bool) {
	if !strings.HasPrefix(id, prefix) {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimPrefix(id, prefix))
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}
