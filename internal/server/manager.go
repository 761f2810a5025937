package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"cvcp/internal/dataset"
	"cvcp/internal/runner"
	"cvcp/internal/store"
)

// Sentinel errors of the job manager; handlers map them to structured API
// errors.
var (
	// ErrQueueFull rejects a submission when the bounded FIFO queue is at
	// capacity (a batch needs one free slot per dataset).
	ErrQueueFull = errors.New("server: job queue is full")
	// ErrTenantQuota rejects a submission when the submitting tenant's
	// max-queued quota is exhausted (the global queue may still have
	// room — the quota is per API key).
	ErrTenantQuota = errors.New("server: tenant queue quota exceeded")
	// ErrDraining rejects submissions after Shutdown began.
	ErrDraining = errors.New("server: shutting down, not accepting jobs")
	// ErrNotFound marks an unknown (or evicted) job or batch id.
	ErrNotFound = errors.New("server: no such job")
)

func errUnknownAlgorithm(name string) error {
	return fmt.Errorf("server: unknown algorithm %q (have %s)", name, strings.Join(algorithmNames(), ", "))
}

// Manager owns the job queue, the executors and the live job set. Job
// persistence is delegated to a store.Store: every lifecycle transition
// and event is written through to it, and only construction reads it
// back — the manager replays whatever the store holds, so finished jobs
// come back as resident results and jobs a previous process was killed
// around are re-queued and run again (deterministic seeding makes the
// re-run select the same parameter). Every read about a job — views,
// listings, event streams — is answered from memory. With the default
// in-memory store the service is ephemeral; with a file store it
// survives restarts.
type Manager struct {
	cfg     Config
	store   store.Store
	limiter *runner.Limiter

	baseCtx    context.Context
	baseCancel context.CancelFunc
	execWG     sync.WaitGroup

	// tenants indexes Config.Tenants by name; submissions under an
	// unconfigured (or empty) tenant name fall back to weight 1 with no
	// per-tenant quota.
	tenants map[string]Tenant

	mu         sync.Mutex
	cond       *sync.Cond // signals: the queue grew, or draining began
	queue      *fairQueue // the pending queue; cancelled jobs are removed eagerly
	jobs       map[string]*Job
	order      []string // sorted IDs (= submission order), for ListPage
	finished   []string // finish order, for eviction
	batches    map[string]*batchState
	nextID     int
	nextBatch  int
	reserved   int            // queue slots held by submissions persisting outside the lock
	reservedBy map[string]int // reserved, per tenant (for quota accounting)
	draining   bool

	// nextDataset mints dataset IDs; guarded by mu like the job counters.
	nextDataset int

	// dsMu guards the dataset registry. It is ordered after mu (never
	// held while taking mu) and never held across store writes.
	dsMu     sync.Mutex
	datasets map[string]*managedDataset

	// metaMu serializes counter high-water-mark writes so a stale
	// snapshot can never overwrite a newer one (see applyEviction).
	metaMu sync.Mutex
}

// batchState tracks one batch's membership. Jobs evicted from the store
// leave the ID in place so the batch view can report them as evicted.
type batchState struct {
	id      string
	created time.Time
	jobIDs  []string
	evicted int
}

// NewManager returns a Manager with its executors started. Any records in
// cfg.Store are replayed first: terminal records become resident finished
// jobs, non-terminal records are re-queued ahead of new submissions.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		store:      cfg.Store,
		limiter:    runner.NewLimiter(cfg.WorkerBudget),
		baseCtx:    ctx,
		baseCancel: cancel,
		tenants:    map[string]Tenant{},
		queue:      newFairQueue(),
		jobs:       map[string]*Job{},
		batches:    map[string]*batchState{},
		reservedBy: map[string]int{},
		datasets:   map[string]*managedDataset{},
	}
	for _, t := range cfg.Tenants {
		m.tenants[t.Name] = t
	}
	m.cond = sync.NewCond(&m.mu)
	m.replay()
	// The executors are the only goroutines the manager owns: a fixed pool
	// started once, consuming the FIFO queue. All per-job clustering work
	// dispatches through internal/runner under the shared Limiter.
	for i := 0; i < cfg.MaxRunningJobs; i++ {
		m.execWG.Add(1)
		go m.executor()
	}
	return m
}

// Config returns the effective (defaulted) configuration.
func (m *Manager) Config() Config { return m.cfg }

// tenantFor resolves a tenant name to its configuration; unconfigured
// names (including the anonymous "") get weight 1 and no quota.
func (m *Manager) tenantFor(name string) Tenant {
	if t, ok := m.tenants[name]; ok {
		return t
	}
	return Tenant{Name: name, Weight: 1}
}

// enqueueLocked puts j into the fair queue under its tenant's weight.
// Callers hold mu.
func (m *Manager) enqueueLocked(j *Job) {
	m.queue.push(j.spec.Tenant, m.tenantFor(j.spec.Tenant).Weight, j)
	m.queueGaugeLocked()
}

// replay loads every record from the store before the executors start:
// terminal records resurrect in place, interrupted ones re-enter the
// queue, ID counters resume past everything seen, and batch membership is
// rebuilt from the records' batch fields. Runs before any concurrency
// exists, so it takes no locks.
func (m *Manager) replay() {
	cursor := ""
	for {
		recs, next, err := m.store.List(cursor, 256)
		if err != nil {
			return // an unreadable store serves as empty; Submit will surface Put errors
		}
		for _, rec := range recs {
			m.restore(rec)
		}
		if next == "" {
			break
		}
		cursor = next
	}
	m.applyEviction(m.trimFinishedLocked())
}

// appendEvents mirrors published job events into the store's event log
// (jobEventLog). Failures are swallowed like persist's: the live stream
// is still served from memory, and the log degrades to a shorter replay
// after a restart instead of failing the job.
func (m *Manager) appendEvents(jobID string, evs []Event) {
	if len(evs) == 0 {
		return
	}
	out := make([]store.Event, 0, len(evs))
	for _, ev := range evs {
		data, err := json.Marshal(ev)
		if err != nil {
			continue
		}
		out = append(out, store.Event{Seq: ev.Seq, Data: data})
	}
	_ = m.store.AppendEvents(jobID, out)
}

// eventsSince reads the job's persisted events with Seq > afterSeq back
// out of the store, for restart replay. Entries that fail to decode are
// skipped.
func (m *Manager) eventsSince(jobID string, afterSeq int) []Event {
	recs, err := m.store.EventsSince(jobID, afterSeq)
	if err != nil {
		return nil
	}
	evs := make([]Event, 0, len(recs))
	for _, r := range recs {
		var ev Event
		if err := json.Unmarshal(r.Data, &ev); err != nil {
			continue
		}
		evs = append(evs, ev)
	}
	return evs
}

func (m *Manager) restore(rec store.Record) {
	if rec.ID == metaID {
		// The counter high-water mark: jobs evicted before the restart
		// may have held IDs above every surviving record.
		var meta metaRecord
		if json.Unmarshal(rec.Spec, &meta) == nil {
			if meta.NextID > m.nextID {
				m.nextID = meta.NextID
			}
			if meta.NextBatch > m.nextBatch {
				m.nextBatch = meta.NextBatch
			}
			if meta.NextDataset > m.nextDataset {
				m.nextDataset = meta.NextDataset
			}
		}
		return
	}
	// Dataset records: metas sort before their row batches ("ds-" < "dsb-"),
	// so every batch replays into an already-restored registry entry. The
	// "dsb-" test must come first — "ds-" is its prefix too.
	if strings.HasPrefix(rec.ID, datasetBatchPrefix) {
		m.restoreDatasetRows(rec)
		return
	}
	if strings.HasPrefix(rec.ID, datasetPrefix) {
		m.restoreDatasetMeta(rec)
		return
	}
	if !strings.HasPrefix(rec.ID, "job-") {
		return // not a job record; ignore unknown reserved IDs
	}
	if n, ok := numericSuffix(rec.ID, "job-"); ok && n > m.nextID {
		m.nextID = n
	}
	if n, ok := numericSuffix(rec.Batch, "batch-"); ok && n > m.nextBatch {
		m.nextBatch = n
	}
	j, requeue := m.jobFromRecord(rec, m.eventsSince(rec.ID, 0))
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	if j.batch != "" {
		b := m.batches[j.batch]
		if b == nil {
			b = &batchState{id: j.batch, created: j.created}
			m.batches[j.batch] = b
		}
		b.jobIDs = append(b.jobIDs, j.id)
		if b.created.After(j.created) {
			b.created = j.created
		}
	}
	if requeue {
		// Back to the queue; persist the reset (a "running" record becomes
		// "queued" again so a second restart replays consistently).
		m.enqueueLocked(j)
		m.persist(j)
		return
	}
	if j.Status().Terminal() {
		m.finished = append(m.finished, j.id)
		if Status(rec.Status) != j.Status() {
			m.persist(j) // a corrupt record was re-marked failed
		}
	}
}

func (m *Manager) executor() {
	defer m.execWG.Done()
	for {
		m.mu.Lock()
		for m.queue.len() == 0 && !m.draining {
			m.cond.Wait()
		}
		if m.queue.len() == 0 { // draining and nothing left
			m.mu.Unlock()
			return
		}
		j := m.queue.pop()
		m.queueGaugeLocked()
		m.mu.Unlock()

		if j.claimRun() {
			m.persist(j) // running
			mJobsRunning.Inc()
			m.runJob(j)
			mJobsRunning.Dec()
		}
		// Whether the job ran or was cancelled in the instant between the
		// pop and the claim, it is terminal now: persist the final state
		// and enter it into the eviction window.
		m.persist(j)
		m.retire(j)
	}
}

// persist mirrors the job's current state into the store. Failures after
// submission are swallowed: the live job is still served from memory, and
// the next transition retries.
func (m *Manager) persist(j *Job) {
	_ = m.store.Put(j.record())
}

// retire records a finished job and evicts the oldest finished jobs beyond
// the retention window. The store writes of an eviction happen outside the
// lock.
func (m *Manager) retire(j *Job) {
	v := j.View()
	mJobsCompleted.With(string(v.Status)).Inc()
	if v.Finished != nil {
		mJobDuration.Observe(v.Finished.Sub(v.Created).Seconds())
	}
	m.mu.Lock()
	m.finished = append(m.finished, j.id)
	evicted, meta := m.trimFinishedLocked()
	m.mu.Unlock()
	m.applyEviction(evicted, meta)
}

// trimFinishedLocked evicts beyond-retention finished jobs from the
// in-memory state and returns the record IDs to delete from the store,
// plus whether the counter high-water mark needs (re)writing. Callers
// hold mu and pass the results to applyEviction after unlocking.
func (m *Manager) trimFinishedLocked() (evicted []string, writeMeta bool) {
	for len(m.finished) > m.cfg.RetainFinished {
		evict := m.finished[0]
		m.finished = m.finished[1:]
		if j := m.jobs[evict]; j != nil && j.batch != "" {
			if b := m.batches[j.batch]; b != nil {
				b.evicted++
				if b.evicted == len(b.jobIDs) {
					delete(m.batches, j.batch)
				}
			}
		}
		delete(m.jobs, evict)
		for i, id := range m.order {
			if id == evict {
				m.order = append(m.order[:i], m.order[i+1:]...)
				break
			}
		}
		evicted = append(evicted, evict)
	}
	return evicted, len(evicted) > 0
}

// applyEviction performs the store writes of an eviction decided by
// trimFinishedLocked: the counter high-water mark FIRST (a crash between
// the writes must never leave deleted IDs uncovered), then the record
// deletes (each of which also drops the job's event log). Meta writes
// serialize under metaMu with counters read fresh at write time — the
// counters only grow and every deletable ID was minted before any write,
// so the last writer always persists a covering value.
func (m *Manager) applyEviction(evicted []string, writeMeta bool) {
	if writeMeta {
		m.metaMu.Lock()
		m.mu.Lock()
		spec, _ := json.Marshal(metaRecord{NextID: m.nextID, NextBatch: m.nextBatch, NextDataset: m.nextDataset})
		m.mu.Unlock()
		//cvcplint:ignore lockio metaMu exists to serialize exactly this meta write (last writer must persist a covering value); the manager's hot mutex m.mu is released above
		_ = m.store.Put(store.Record{ID: metaID, Status: "meta", Spec: spec})
		m.metaMu.Unlock()
	}
	for _, id := range evicted {
		_ = m.store.Delete(id)
	}
	mJobsEvicted.Add(uint64(len(evicted)))
}

// reserveLocked allocates n job IDs and holds n queue slots for a
// tenant's submission that will persist outside the lock. The caller
// holds mu. Beyond the global queue bound, a tenant with a configured
// MaxQueued quota is held to queued+reserved <= MaxQueued.
func (m *Manager) reserveLocked(tenant string, n int) ([]string, error) {
	if m.draining {
		return nil, ErrDraining
	}
	if m.queue.len()+m.reserved+n > m.cfg.QueueDepth {
		return nil, ErrQueueFull
	}
	if t := m.tenantFor(tenant); t.MaxQueued > 0 && m.queue.queued(tenant)+m.reservedBy[tenant]+n > t.MaxQueued {
		return nil, ErrTenantQuota
	}
	// Nine digits of zero padding: the store orders by lexicographic ID,
	// which must equal numeric order for the lifetime of a durable store
	// (the counters survive restarts), so the pad has to outlast it.
	ids := make([]string, n)
	for i := range ids {
		m.nextID++
		ids[i] = fmt.Sprintf("job-%09d", m.nextID)
	}
	m.reserved += n
	m.reservedBy[tenant] += n
	m.queueGaugeLocked()
	return ids, nil
}

// release returns n reserved queue slots after a failed submission. The
// consumed IDs stay consumed — gaps are harmless, reuse is not.
func (m *Manager) release(tenant string, n int) {
	m.mu.Lock()
	m.reserved -= n
	m.reservedBy[tenant] -= n
	m.queueGaugeLocked()
	m.mu.Unlock()
}

// publish exposes fully persisted jobs (and their batch, if any): they
// enter the job map, the listing order and the FIFO queue, and their
// reserved slots convert into real queue entries. If the manager started
// draining while the jobs were persisting, they are discarded instead and
// ErrDraining is returned — the drain may already have stopped the
// executors that would run them.
func (m *Manager) publish(jobs []*Job, b *batchState) error {
	m.mu.Lock()
	m.reserved -= len(jobs)
	for _, j := range jobs {
		m.reservedBy[j.spec.Tenant]--
	}
	if m.draining {
		m.queueGaugeLocked()
		m.mu.Unlock()
		for _, j := range jobs {
			m.discardPersisted(j)
		}
		return ErrDraining
	}
	for _, j := range jobs {
		m.jobs[j.id] = j
		i := sort.SearchStrings(m.order, j.id)
		m.order = append(m.order, "")
		copy(m.order[i+1:], m.order[i:])
		m.order[i] = j.id
		m.enqueueLocked(j)
	}
	if b != nil {
		m.batches[b.id] = b
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	return nil
}

// discardPersisted erases the durable trace — record and event log — of
// a job that never published (a rollback, a failed Put whose queued
// event already reached the log, or a drain that began mid-submission).
// If the delete fails too, a terminal cancelled record is written
// best-effort — a terminal record is never re-queued by a restart, so the
// job cannot run either way.
func (m *Manager) discardPersisted(j *Job) {
	j.requestCancel()
	if err := m.store.Delete(j.id); err != nil {
		_ = m.store.Put(j.record())
	}
}

// Submit validates nothing (the caller did) and enqueues a new job for ds
// under spec. It fails with ErrDraining after Shutdown began and with
// ErrQueueFull when the FIFO queue is at capacity. The job is durably
// persisted before it is visible or runnable; the expensive work
// (serialization, the store write and its fsync) happens outside the
// manager lock, so concurrent reads never stall behind a submission.
// Cancelling a queued job removes it from the queue immediately, so its
// slot frees without waiting for an executor.
func (m *Manager) Submit(spec Spec, ds *dataset.Dataset) (*Job, error) {
	jobs, _, err := m.submit([]BatchItem{{Spec: spec, Dataset: ds}}, false)
	if err != nil {
		return nil, err
	}
	return jobs[0], nil
}

// SubmitBatch enqueues one job per item under a fresh batch ID, all-or-
// nothing: the batch needs len(items) free queue slots or it fails with
// ErrQueueFull, and a persistence failure rolls back the jobs already
// persisted. Items run as independent jobs (each drawing on the shared
// worker budget), so a batch of N datasets yields exactly the N selections
// the individual submissions would.
func (m *Manager) SubmitBatch(items []BatchItem) (BatchView, error) {
	_, b, err := m.submit(items, true)
	if err != nil {
		return BatchView{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.batchViewLocked(b), nil
}

// submit is the one submission sequence of Submit and SubmitBatch: it
// reserves a queue slot and an ID per item, persists each job, rolls the
// persisted ones back when a write fails, and publishes them. batch mints
// a batch ID that every job carries.
func (m *Manager) submit(items []BatchItem, batch bool) ([]*Job, *batchState, error) {
	// Only an inline job's rows travel in its records: a dataset job's
	// are durable in the dataset's own records, named by its pin.
	blobs := make([][]byte, len(items))
	for i, it := range items {
		if it.Spec.DatasetID == "" {
			blobs[i] = marshalDataset(it.Dataset)
		}
	}
	// A batch arrives through one submission, so every item shares the
	// submitting tenant.
	tenant := ""
	if len(items) > 0 {
		tenant = items[0].Spec.Tenant
	}
	m.mu.Lock()
	ids, err := m.reserveLocked(tenant, len(items))
	if err != nil {
		m.mu.Unlock()
		mJobsRejected.With(rejectReason(err)).Inc()
		return nil, nil, err
	}
	var b *batchState
	bid := ""
	if batch {
		m.nextBatch++
		bid = fmt.Sprintf("batch-%09d", m.nextBatch)
		b = &batchState{id: bid, created: time.Now()}
	}
	m.mu.Unlock()

	jobs := make([]*Job, 0, len(items))
	for i, it := range items {
		j := newJob(ids[i], bid, it.Spec, it.Dataset, blobs[i], m.baseCtx, m, nil, 0, false)
		if err := m.store.Put(j.record()); err != nil {
			// Roll the submission back so it never half-exists — the
			// failing job included: its record never landed, but newJob
			// already appended its queued event to the store's log, and the
			// consumed ID is never reused, so the orphaned event log would
			// otherwise live in the store forever.
			m.discardPersisted(j)
			for _, created := range jobs {
				m.discardPersisted(created)
			}
			m.release(tenant, len(items))
			mJobsRejected.With("store_error").Inc()
			return nil, nil, fmt.Errorf("server: persisting job: %w", err)
		}
		jobs = append(jobs, j)
		if b != nil {
			b.jobIDs = append(b.jobIDs, j.id)
		}
	}
	if err := m.publish(jobs, b); err != nil {
		mJobsRejected.With(rejectReason(err)).Inc()
		return nil, nil, err
	}
	mJobsSubmitted.Add(uint64(len(jobs)))
	return jobs, b, nil
}

// Get returns the job with the given id, or ErrNotFound (also for evicted
// jobs).
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// Len reports how many jobs are resident in the store.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.order)
}

// ListPage returns up to limit views of the resident jobs with ID >
// cursor in submission order, plus the cursor for the next page (""
// when exhausted). limit <= 0 means no limit.
func (m *Manager) ListPage(cursor string, limit int) ([]JobView, string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, found := slices.BinarySearch(m.order, cursor)
	if found {
		i++
	}
	ids, next := m.order[i:], ""
	if limit > 0 && limit < len(ids) {
		ids = ids[:limit]
		next = ids[limit-1]
	}
	views := make([]JobView, len(ids))
	for k, id := range ids {
		views[k] = m.jobs[id].View()
	}
	return views, next
}

// GetBatch returns the aggregate view of a batch, or ErrNotFound.
func (m *Manager) GetBatch(id string) (BatchView, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.batches[id]
	if !ok {
		return BatchView{}, ErrNotFound
	}
	return m.batchViewLocked(b), nil
}

func (m *Manager) batchViewLocked(b *batchState) BatchView {
	v := BatchView{
		ID:      b.id,
		Created: b.created,
		Total:   len(b.jobIDs),
		Evicted: b.evicted,
		Counts:  map[Status]int{},
		Done:    true,
	}
	for _, id := range b.jobIDs {
		j, ok := m.jobs[id]
		if !ok {
			continue
		}
		jv := j.View()
		v.Counts[jv.Status]++
		if !jv.Status.Terminal() {
			v.Done = false
		}
		v.Jobs = append(v.Jobs, jv)
	}
	return v
}

// Cancel cancels the job with the given id: a queued job is removed from
// the FIFO queue and finalized immediately (its queue slot frees at once),
// a running job's context is cancelled and the job finishes as cancelled
// once the engine stops. Cancelling a finished job is a no-op. The
// returned status is the job's state after the request.
func (m *Manager) Cancel(id string) (Status, error) {
	j, err := m.Get(id)
	if err != nil {
		return "", err
	}
	st := j.requestCancel()
	if st == StatusCancelled {
		// If the job was still waiting in the queue, pull it out now: no
		// executor should spend a pop on it, and its slot frees
		// immediately. Exactly one of this path and the executor (which
		// pops before we got here) retires the job.
		m.mu.Lock()
		removed := m.queue.remove(j)
		if removed {
			m.queueGaugeLocked()
		}
		m.mu.Unlock()
		if removed {
			m.persist(j)
			m.retire(j)
		}
	}
	return st, nil
}

// Shutdown drains the manager: no new submissions are accepted, queued and
// running jobs are given until ctx expires to finish, then all remaining
// jobs are force-cancelled. It returns ctx.Err() when the drain deadline
// was hit, nil on a clean drain. Shutdown is idempotent. The store is not
// closed — its owner (e.g. cmd/cvcpd) closes it after the drain, so the
// final job states are compacted into the snapshot.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	m.cond.Broadcast()
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.execWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.baseCancel() // force-cancel every job still executing or queued
		<-done
		return ctx.Err()
	}
}
