package server

import (
	"context"
	"slices"
	"sort"
	"sync"
	"time"

	"cvcp/internal/constraints"
	corecvcp "cvcp/internal/cvcp"
	"cvcp/internal/dataset"
	"cvcp/internal/runner"
	"cvcp/internal/stats"
)

// Status is a job's lifecycle state. Transitions are
// queued → running → done/failed/cancelled, with queued → cancelled for
// jobs cancelled before an executor picks them up.
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// ConstraintSpec is one pairwise constraint of a Scenario II job. The
// JSON tags fix the persisted form the job store replays after a restart.
type ConstraintSpec struct {
	A        int  `json:"a"`
	B        int  `json:"b"`
	MustLink bool `json:"must_link"`
}

// Spec is a validated job specification — everything a selection needs
// except the dataset itself. It is immutable after submission and is
// persisted verbatim (JSON) into the job store, so a re-queued job re-runs
// with exactly the options it was submitted with. At execution time it maps
// one-to-one onto a cvcp.Spec: Algorithm/Algorithms+Params become the Grid,
// LabelFraction/Constraints the Supervision, Scorer the scoring strategy.
type Spec struct {
	// Algorithm is the single candidate method of an ordinary job; empty
	// means the registry default ("fosc") unless Algorithms is set.
	Algorithm string `json:"algorithm"`
	// Algorithms, when non-empty, makes the job a cross-method selection:
	// every named method competes on the same supervision in one shared
	// engine grid, and the best method+parameter combination wins.
	// Mutually exclusive with Algorithm.
	Algorithms []string `json:"algorithms,omitempty"`
	// Params is the candidate parameter range. For single-method jobs it is
	// never empty after validation (defaults come from the algorithm
	// registry); for cross-method jobs an empty Params means every
	// candidate uses its own registry default range, while a non-empty one
	// applies to all candidates.
	Params []int `json:"params"`
	// NFolds is the requested fold count; 0 lets the framework default
	// (10, lowered automatically for small supervision).
	NFolds int   `json:"folds"`
	Seed   int64 `json:"seed"`
	// Scorer names the scoring strategy: "" or "cv" is cross-validation
	// (the paper's CVCP criterion), "bootstrap" is out-of-bag resampling,
	// and any validity index name (silhouette, davies-bouldin,
	// calinski-harabasz, dunn) scores by that relative criterion.
	Scorer string `json:"scorer,omitempty"`
	// BootstrapRounds is the round count when Scorer is "bootstrap";
	// 0 means the framework default (10).
	BootstrapRounds int `json:"bootstrap_rounds,omitempty"`
	// Matrix32 makes the job's FOSC candidates compute their OPTICS
	// distance matrix in float32 (half the memory, with the library's
	// documented bit-exactness caveats). Valid only when the grid has a
	// FOSC candidate; other methods have no distance matrix to shrink.
	Matrix32 bool `json:"matrix32,omitempty"`
	// Eps, when positive, caps the OPTICS neighborhood radius of the
	// job's FOSC candidates: density estimation routes through the
	// VP-tree ε-range driver (optics.RunWithEps) instead of the dense
	// distance matrix, trading the matrix's O(n²) memory for on-demand
	// range queries. 0 means the dense ε=∞ path. Valid only when the
	// grid has a FOSC candidate, and mutually exclusive with Matrix32
	// (the ε-range driver has no float32-matrix mode). Must be finite —
	// an unbounded radius is exactly what Eps=0 already runs.
	Eps float64 `json:"eps,omitempty"`
	// Tenant is the name of the API-key tenant that submitted the job
	// ("" for the anonymous tenant of an open deployment). Set by the
	// server from the authenticated key, never by clients; persisting it
	// in the spec keeps quota and fair-queue accounting correct across a
	// restart's re-queue.
	Tenant string `json:"tenant,omitempty"`
	// DatasetID, when set, points the job at a registered versioned
	// dataset instead of an inline CSV payload. Dataset jobs run the
	// stable supervision (cvcp.StableLabels): fold assignment and label
	// sampling depend only on row index and seed, never on dataset size,
	// so a re-selection after appends reuses every clean fold's cells
	// from the content-addressed cell cache. Requires LabelFraction.
	DatasetID string `json:"dataset_id,omitempty"`
	// DatasetVersion pins the dataset version the job runs against. 0 at
	// submission means the current version; the handler resolves the pin
	// and writes it back before the job persists, so a restart's re-queue
	// (and every distributed worker) sees exactly the same rows.
	DatasetVersion int `json:"dataset_version,omitempty"`
	// Exactly one of LabelFraction / Constraints is set: LabelFraction > 0
	// runs Scenario I (labels sampled from the dataset's label column with
	// the job seed, exactly as cmd/cvcp does), a non-empty Constraints list
	// runs Scenario II.
	LabelFraction float64          `json:"label_fraction,omitempty"`
	Constraints   []ConstraintSpec `json:"constraints,omitempty"`
}

// methods returns the candidate algorithm names of the job's grid.
func (s Spec) methods() []string {
	if len(s.Algorithms) > 0 {
		return s.Algorithms
	}
	return []string{s.Algorithm}
}

// Event is one entry of a job's progress stream. Status events mark
// lifecycle transitions; progress events report grid completion and are
// monotonically increasing in Done within one run (the engine
// serializes its progress callbacks; a crash-recovery re-queue restarts
// the grid, so a replayed stream may carry two runs' progress). Shard
// events exist only on distributed jobs (coordinator role) and report
// shard lifecycle transitions: ShardStatus "leased" when a worker
// acquires (or reclaims) a shard, "done"/"failed" when its result
// lands in the shard record.
type Event struct {
	Seq    int    `json:"seq"`
	Type   string `json:"type"` // "status", "progress" or "shard"
	Status Status `json:"status,omitempty"`
	Done   int    `json:"done,omitempty"`
	Total  int    `json:"total,omitempty"`
	// Shard fields, set only on "shard" events: the shard index and the
	// job's shard count, the transition, and the worker involved.
	Shard       int    `json:"shard,omitempty"`
	Shards      int    `json:"shards,omitempty"`
	ShardStatus string `json:"shard_status,omitempty"`
	Worker      string `json:"worker,omitempty"`
}

// Progress coalescing: the engine reports every completed grid cell, but
// publishing (and durably logging) an event per cell would make huge
// grids emit thousands of near-identical events. A progress event is
// published when done has advanced by at least total/maxProgressEvents
// cells (so a full run emits on the order of maxProgressEvents
// delta-driven events however large the grid), plus up to
// maxProgressEvents interval-driven events — at most one per
// progressMinInterval — so slow grids still show movement without
// making the log proportional to run *duration*; the final cell always
// publishes. Total progress events per run: at most
// 2*maxProgressEvents + 1. Grids with at most maxProgressEvents cells
// publish every cell, exactly as before coalescing existed.
const (
	maxProgressEvents   = 256
	progressMinInterval = 200 * time.Millisecond
)

// seqRequeueGap is added to the sequence counter when a restart resumes
// a job from its durable event log before publishing anything new. A
// crash can lose an fsync-coalesced suffix of events that live
// subscribers already received; if post-restart events re-used those
// sequence numbers for different content, a client resuming with a
// pre-crash Last-Event-ID would silently skip them. One incarnation can
// publish at most 2*maxProgressEvents+1 progress events (the coalescing
// cap) plus a handful of status events, so this gap strictly clears
// every sequence number the lost suffix could have carried. Gaps are
// harmless to consumers: ids only need to be monotone.
const seqRequeueGap = 4 * maxProgressEvents

// jobEventLog is the job's write-through to the durable per-job event
// log: the Manager implements it over the store, serializing server
// events into opaque store entries. Appends happen inside publishLocked —
// under the job mutex — which is what guarantees the log's sequence
// order matches publish order. An append never performs its own fsync
// (the file store coalesces syncs off the append path), so it is
// normally a buffered write; it can briefly contend on the store mutex
// with a concurrent record commit, a deliberate trade for the ordering
// guarantee. Only a restart reads the log back (Manager.eventsSince).
type jobEventLog interface {
	appendEvents(jobID string, evs []Event)
}

// Job is one selection job. All mutable state is guarded by mu; the
// dataset and spec are immutable after submission. ds is nil for terminal
// jobs resurrected from the store (their records drop the dataset
// payload); dsName and objects carry the dataset identity independently.
// The job's event history is the only way its events reach a reader:
// EventsSince reads past any point of it, and each publish wakes the
// readers waiting at its end.
type Job struct {
	id      string
	batch   string // owning batch ID, empty for individual submissions
	spec    Spec
	ds      *dataset.Dataset
	dsBlob  []byte // serialized dataset payload for non-terminal records
	dsName  string
	objects int
	created time.Time

	ctx    context.Context
	cancel context.CancelFunc

	log jobEventLog // durable event mirror; never nil

	mu       sync.Mutex
	status   Status
	started  time.Time
	finished time.Time
	done     int
	total    int
	errMsg   string
	result   *ResultView
	seq      int
	events   []Event // the whole history, ascending in Seq
	// wake is closed by the next publish; nil until a reader waits on it.
	wake chan struct{}

	// Progress coalescing state: the done value and wall time of the
	// last published progress event, and how many interval-driven
	// publishes the job has spent (capped at maxProgressEvents).
	lastProgressDone int
	lastProgressPub  time.Time
	intervalPubs     int
}

// newJob builds a queued job. dsBlob is the pre-serialized dataset
// payload for persistence — callers build it once, outside the manager
// lock (marshalDataset), or reuse the payload of a replayed record.
// prior is the job's replayed event history and restored marks a job
// re-queued from a restart: prior seeds the sequence counter and the
// history so the fresh queued event continues the existing log instead of
// restarting seq numbering, and a restored job gaps its sequence
// counter even when prior is empty — the log may have been wholly lost
// to WAL corruption, yet a pre-crash subscriber still holds the old
// sequence numbers (see seqRequeueGap). seqFloor is the record's
// persisted sequence high-water mark: record writes fsync even when
// event appends are failing, so seeding from max(prior, seqFloor)
// keeps the gap sound across repeated crashes with a stalled log.
func newJob(id, batch string, spec Spec, ds *dataset.Dataset, dsBlob []byte, parent context.Context, log jobEventLog, prior []Event, seqFloor int, restored bool) *Job {
	ctx, cancel := context.WithCancel(parent)
	j := &Job{
		id:      id,
		batch:   batch,
		spec:    spec,
		ds:      ds,
		dsBlob:  dsBlob,
		dsName:  ds.Name,
		objects: ds.N(),
		created: time.Now(),
		ctx:     ctx,
		cancel:  cancel,
		status:  StatusQueued,
		log:     log,
	}
	j.mu.Lock()
	j.seedEventsLocked(prior)
	if seqFloor > j.seq {
		j.seq = seqFloor
	}
	if restored {
		j.seq += seqRequeueGap // see seqRequeueGap: never reuse possibly-lost seqs
	}
	j.publishLocked(Event{Type: "status", Status: StatusQueued})
	j.mu.Unlock()
	return j
}

// seedEventsLocked installs replayed history: the sequence counter
// resumes past it. Seeded events are already in the durable log, so they
// are not re-appended, and no reader can be waiting yet. Callers hold
// mu.
func (j *Job) seedEventsLocked(prior []Event) {
	j.events = append(j.events, prior...)
	if len(prior) > 0 {
		j.seq = prior[len(prior)-1].Seq
	}
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Batch returns the owning batch ID ("" for individual submissions).
func (j *Job) Batch() string { return j.batch }

// Status returns the job's current lifecycle state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// publishLocked assigns the next sequence number, mirrors the event into
// the durable log, adds it to the job's history and wakes the readers
// waiting at the history's end. Callers hold mu. Appending under mu is
// what makes the log's order equal the publish order; the append is a
// buffered write that never fsyncs on its own (see jobEventLog).
func (j *Job) publishLocked(ev Event) {
	j.seq++
	ev.Seq = j.seq
	j.events = append(j.events, ev)
	j.log.appendEvents(j.id, []Event{ev})
	if j.wake != nil {
		close(j.wake)
		j.wake = nil
	}
}

// EventsSince returns the events with Seq > after, in order, and the
// channel to wait on for more: it closes at the job's next publish, and
// it is nil once the job is terminal, when the history is complete. after
// 0 reads the full history; a client resuming with Last-Event-ID passes
// its last seen sequence number and re-reads nothing before it. A
// sequence number this job never issued (a stale or foreign
// Last-Event-ID) is unknown and reads the full history too, rather than
// silently suppressing every event below the bogus cutoff.
func (j *Job) EventsSince(after int) ([]Event, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if after > j.seq {
		after = 0
	}
	// The terminal publish closed and cleared wake, and nothing publishes
	// after it, so a terminal job's wake stays nil.
	if j.wake == nil && !j.status.Terminal() {
		j.wake = make(chan struct{})
	}
	return j.eventsSinceLocked(after), j.wake
}

// eventsSinceLocked returns the history's events with Seq > after.
// Callers hold mu. The result shares the history's array, clipped so a
// caller's append copies instead of writing into the history's spare
// capacity; published events never change, so it stays valid after mu
// is released.
func (j *Job) eventsSinceLocked(after int) []Event {
	i := sort.Search(len(j.events), func(i int) bool { return j.events[i].Seq > after })
	return slices.Clip(j.events[i:])
}

// requestCancel cancels the job's context and, when the job has not started
// yet, finalizes it as cancelled immediately. It returns the resulting
// status and is idempotent.
func (j *Job) requestCancel() Status {
	j.cancel()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status == StatusQueued {
		j.status = StatusCancelled
		j.finished = time.Now()
		j.publishLocked(Event{Type: "status", Status: StatusCancelled})
	}
	return j.status
}

// claimRun transitions queued → running. It returns false when the job was
// cancelled while queued, in which case the executor must skip it.
func (j *Job) claimRun() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	j.status = StatusRunning
	j.started = time.Now()
	j.publishLocked(Event{Type: "status", Status: StatusRunning})
	return true
}

// onProgress is the engine progress hook; the engine serializes calls
// and guarantees done is monotone, so the event stream is too. The
// counters always update (GET /v1/jobs/{id} reports the exact state),
// but consecutive progress events are coalesced — see the
// maxProgressEvents doc — so a huge grid's event log stays bounded.
func (j *Job) onProgress(done, total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusRunning {
		return
	}
	j.done, j.total = done, total
	if !j.shouldPublishProgressLocked(done, total) {
		return
	}
	j.lastProgressDone = done
	j.lastProgressPub = time.Now()
	j.publishLocked(Event{Type: "progress", Done: done, Total: total})
}

func (j *Job) shouldPublishProgressLocked(done, total int) bool {
	if done >= total {
		return true // the final cell always publishes
	}
	// Ceiling division: a floor stride would let grids just above a
	// multiple of maxProgressEvents emit up to ~25% more delta-driven
	// events than the documented cap.
	stride := (total + maxProgressEvents - 1) / maxProgressEvents
	if stride < 1 {
		stride = 1
	}
	if done-j.lastProgressDone >= stride {
		return true
	}
	// Interval-driven publishes are capped: without the cap, a grid
	// whose cells each outlast the interval would publish every cell
	// and grow the durable log with run duration instead of staying
	// bounded.
	if j.intervalPubs < maxProgressEvents && time.Since(j.lastProgressPub) >= progressMinInterval {
		j.intervalPubs++
		return true
	}
	return false
}

// finish records the selection outcome and publishes the terminal event.
func (j *Job) finish(res *corecvcp.Result, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.Terminal() {
		return
	}
	j.finished = time.Now()
	switch {
	case err == nil:
		j.status = StatusDone
		j.result = resultView(res, len(j.spec.Algorithms) > 0)
		if j.result != nil && j.spec.DatasetID != "" {
			j.result.CellsComputed = res.Cells.Computed
			j.result.CellsReused = res.Cells.Reused
			mReselectDirty.Add(uint64(res.Cells.Computed))
			mReselectReused.Add(uint64(res.Cells.Reused))
		}
	case j.ctx.Err() != nil:
		j.status = StatusCancelled
	default:
		j.status = StatusFailed
		j.errMsg = err.Error()
	}
	j.publishLocked(Event{Type: "status", Status: j.status})
	// Release the cancelCtx registered on the manager's base context;
	// without this every completed job would stay referenced by the parent
	// context for the life of the process.
	j.cancel()
}

// onShard publishes a distributed job's shard transition as a "shard"
// event. Shard events bypass progress coalescing — a job has at most a
// few hundred shards (each spanning many grid cells), so the volume is
// inherently bounded.
func (j *Job) onShard(shard, shards int, shardStatus, worker string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusRunning {
		return
	}
	j.publishLocked(Event{Type: "shard", Shard: shard, Shards: shards,
		ShardStatus: shardStatus, Worker: worker})
}

// execute runs the selection. The caller (a Manager executor) has already
// claimed the running state. workers bounds this job's own grid
// concurrency; limiter is the server-wide budget shared across jobs;
// cache is a dataset job's cell cache (nil for inline-CSV jobs).
func (j *Job) execute(limiter *runner.Limiter, workers int, cache *runner.ScoreCache) {
	spec, err := buildSelectionSpec(j.spec, j.ds)
	if err != nil {
		// Validated at submission; only a racing re-registration can
		// invalidate it.
		j.finish(nil, err)
		return
	}
	spec.Options.Workers = workers
	spec.Options.Progress = j.onProgress
	spec.Options.Limiter = limiter
	spec.Options.CellCache = cache
	res, err := corecvcp.Select(j.ctx, spec)
	j.finish(res, err)
}

// buildSelectionSpec maps a persisted job spec onto the library's unified
// selection Spec: the algorithm list becomes the Grid (per-candidate
// registry defaults fill empty parameter ranges), the supervision fields
// become a Supervision, and the scorer name resolves to a Scorer strategy.
// Batch members go through exactly the same mapping.
//
// Everything score-determining lives here — including Options.NFolds and
// Options.Seed, which fix the fold split. Distributed execution depends on
// that: a coordinator and every worker each call buildSelectionSpec on the
// same persisted spec and dataset and must end up with plans that score
// every grid cell bit-identically. Machine-local knobs (Workers, Progress,
// Limiter) are layered on by the caller afterwards; they never affect
// scores.
func buildSelectionSpec(spec Spec, ds *dataset.Dataset) (corecvcp.Spec, error) {
	grid := make(corecvcp.Grid, 0, len(spec.methods()))
	for _, name := range spec.methods() {
		entry, ok := lookupAlgorithm(name)
		if !ok {
			return corecvcp.Spec{}, errUnknownAlgorithm(name)
		}
		alg := entry.alg
		if spec.Matrix32 || spec.Eps > 0 {
			if fo, ok := alg.(corecvcp.FOSCOpticsDend); ok {
				fo.Matrix32 = spec.Matrix32
				fo.Eps = spec.Eps
				alg = fo
			}
		}
		params := spec.Params
		if len(params) == 0 {
			params = entry.defaultParams
		}
		grid = append(grid, corecvcp.Candidate{Algorithm: alg, Params: params})
	}
	var sup corecvcp.Supervision
	switch {
	case len(spec.Constraints) > 0:
		cs := make([]constraints.Constraint, len(spec.Constraints))
		for i, c := range spec.Constraints {
			cs[i] = constraints.Constraint{Pair: constraints.MakePair(c.A, c.B), MustLink: c.MustLink}
		}
		sup = corecvcp.ConstraintSet(constraints.NewSet(cs...))
	case spec.DatasetID != "":
		// Dataset-referencing jobs use the stable supervision: per-row
		// label selection and fold assignment that never move under
		// append, the contract the cell cache's reuse guarantee is built
		// on. DatasetID travels in the persisted spec, so a coordinator
		// and every worker route here identically.
		sup = corecvcp.StableLabels(spec.LabelFraction)
	default:
		// Scenario I: sample the labeled objects exactly as cmd/cvcp does,
		// so a job replays identically to the CLI with the same seed.
		r := stats.NewRand(spec.Seed)
		sup = corecvcp.Labels(ds.SampleLabels(r, spec.LabelFraction))
	}
	scorer, err := corecvcp.ScorerByName(spec.Scorer, spec.BootstrapRounds)
	if err != nil {
		return corecvcp.Spec{}, err
	}
	return corecvcp.Spec{
		Dataset:     ds,
		Grid:        grid,
		Supervision: sup,
		Scorer:      scorer,
		Options:     corecvcp.Options{NFolds: spec.NFolds, Seed: spec.Seed},
	}, nil
}

// ScoreView is one candidate's cross-validated score in a job result.
type ScoreView struct {
	Param      int       `json:"param"`
	Score      float64   `json:"score"`
	FoldScores []float64 `json:"fold_scores"`
}

// ResultView is the JSON form of a finished job's selection: the winner's
// fields at the top level plus, for cross-method jobs, one summary per grid
// candidate. It is also the persisted result format in the job store.
type ResultView struct {
	Algorithm   string      `json:"algorithm"`
	BestParam   int         `json:"best_param"`
	BestScore   float64     `json:"best_score"`
	Scores      []ScoreView `json:"scores"`
	FinalLabels []int       `json:"final_labels"`
	// CellsComputed and CellsReused split the job's cell-grid work for
	// dataset-referencing jobs: cells computed this run (dirty under the
	// current dataset version) versus served from the persistent cell
	// cache. Reused cells are bit-identical to recomputation, so the
	// split is pure observability. Both absent for inline-CSV jobs.
	CellsComputed int `json:"cells_computed,omitempty"`
	CellsReused   int `json:"cells_reused,omitempty"`
	// Candidates summarizes every grid candidate of a cross-method
	// ("algorithms") job — including the winner, and even when the list
	// named a single method, so clients can rely on the field's presence
	// from the submission shape alone. Absent for single-method
	// ("algorithm") jobs.
	Candidates []CandidateView `json:"candidates,omitempty"`
}

// CandidateView is one grid candidate's outcome in a cross-method result.
// Final labelings are reported only for the winner (the top-level
// ResultView fields), keeping persisted results proportional to the grid,
// not to grid × objects.
type CandidateView struct {
	Algorithm string      `json:"algorithm"`
	BestParam int         `json:"best_param"`
	BestScore float64     `json:"best_score"`
	Scores    []ScoreView `json:"scores"`
}

func scoreViews(sel *corecvcp.Selection) []ScoreView {
	out := make([]ScoreView, 0, len(sel.Scores))
	for _, ps := range sel.Scores {
		out = append(out, ScoreView{Param: ps.Param, Score: ps.Score, FoldScores: ps.FoldScores})
	}
	return out
}

// resultView converts a library selection result into its JSON/persisted
// form. crossMethod reports whether the job was submitted with the
// "algorithms" grid shape: those results always carry the Candidates
// array, even for a one-entry grid, so the response shape follows the
// submission shape rather than the candidate count.
func resultView(res *corecvcp.Result, crossMethod bool) *ResultView {
	if res == nil || res.Winner == nil {
		return nil
	}
	sel := res.Winner
	out := &ResultView{
		Algorithm:   sel.Algorithm,
		BestParam:   sel.Best.Param,
		BestScore:   sel.Best.Score,
		Scores:      scoreViews(sel),
		FinalLabels: sel.FinalLabels,
	}
	if crossMethod {
		for _, c := range res.PerCandidate {
			out.Candidates = append(out.Candidates, CandidateView{
				Algorithm: c.Algorithm,
				BestParam: c.Best.Param,
				BestScore: c.Best.Score,
				Scores:    scoreViews(c),
			})
		}
	}
	return out
}

// JobView is the JSON form of a job's state. Algorithm is the single
// candidate method; cross-method jobs list their grid in Algorithms
// instead.
type JobView struct {
	ID         string      `json:"id"`
	Batch      string      `json:"batch,omitempty"`
	Status     Status      `json:"status"`
	Algorithm  string      `json:"algorithm,omitempty"`
	Algorithms []string    `json:"algorithms,omitempty"`
	Scorer     string      `json:"scorer,omitempty"`
	Matrix32   bool        `json:"matrix32,omitempty"`
	Eps        float64     `json:"eps,omitempty"`
	Tenant     string      `json:"tenant,omitempty"`
	Dataset    string      `json:"dataset"`
	DatasetID  string      `json:"dataset_id,omitempty"`
	DatasetVer int         `json:"dataset_version,omitempty"`
	Objects    int         `json:"objects"`
	Params     []int       `json:"params"`
	Folds      int         `json:"folds"`
	Seed       int64       `json:"seed"`
	Created    time.Time   `json:"created"`
	Started    *time.Time  `json:"started,omitempty"`
	Finished   *time.Time  `json:"finished,omitempty"`
	Done       int         `json:"done"`
	Total      int         `json:"total"`
	Error      string      `json:"error,omitempty"`
	Result     *ResultView `json:"result,omitempty"`
}

// View snapshots the job for JSON responses.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:         j.id,
		Batch:      j.batch,
		Status:     j.status,
		Algorithm:  j.spec.Algorithm,
		Algorithms: j.spec.Algorithms,
		Scorer:     j.spec.Scorer,
		Matrix32:   j.spec.Matrix32,
		Eps:        j.spec.Eps,
		Tenant:     j.spec.Tenant,
		Dataset:    j.dsName,
		DatasetID:  j.spec.DatasetID,
		DatasetVer: j.spec.DatasetVersion,
		Objects:    j.objects,
		Params:     j.spec.Params,
		Folds:      j.spec.NFolds,
		Seed:       j.spec.Seed,
		Created:    j.created,
		Done:       j.done,
		Total:      j.total,
		Error:      j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	v.Result = j.result
	return v
}
