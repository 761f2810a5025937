// Package server is the CVCP selection service: a JSON HTTP API over an
// asynchronous job manager that runs model selections through the
// internal/runner engine and persists job state through an internal/store
// Store.
//
// The API (cmd/cvcpd serves it; docs/api.md is the full reference):
//
//	POST   /v1/jobs             submit a selection job (CSV dataset in the
//	                            request body, as a multipart upload, or
//	                            inline in a JSON document)
//	GET    /v1/jobs             list jobs, cursor-paginated
//	                            (?limit=&cursor=)
//	GET    /v1/jobs/{id}        job status, progress and result
//	DELETE /v1/jobs/{id}        cancel a queued or running job (a queued
//	                            job leaves the FIFO queue immediately)
//	GET    /v1/jobs/{id}/events stream progress as Server-Sent Events
//	POST   /v1/batches          submit N datasets sharing one option set
//	GET    /v1/batches/{id}     aggregate per-item status of a batch
//	GET    /healthz             liveness
//
// Behind the API sits the Manager: a bounded FIFO queue feeding a fixed
// set of job executors, with a global worker budget (a runner.Limiter)
// shared by every running job's fold×parameter grid — the machine-wide
// concurrency is bounded no matter how many jobs run at once, and all
// clustering work dispatches through internal/runner rather than ad-hoc
// goroutines.
//
// Job state is delegated to a store.Store (Config.Store): every lifecycle
// transition — and every published SSE event, via the store's EventLog —
// is written through to it, and finished jobs beyond the retention window
// are evicted oldest-first (dropping their event logs with them). Job
// views, listings and SSE streams are answered from the manager's memory
// — every stream reads its job's event history, and a publish wakes the
// streams waiting at its end — and only startup reads job records and
// event logs back. With the default
// in-memory store the service is ephemeral; with a file store (cvcpd
// -store-dir) the manager replays the store on startup — finished jobs
// reappear with their results and full event histories (SSE replay
// streams the identical sequence before and after a restart, and
// Last-Event-ID resume works across it), and jobs interrupted mid-run
// are re-queued, appending to their existing event logs, and, thanks to
// deterministic per-cell seeding, select the same parameter they would
// have.
//
// Shutdown drains gracefully: new submissions are rejected, queued and
// running jobs finish (or are force-cancelled when the drain context
// expires), and the final states are persisted before the store's owner
// compacts and closes it.
package server

import (
	"runtime"
	"time"

	"cvcp/internal/store"
)

// Role selects how a cvcpd process participates in a topology. A single
// process (the default) computes its own jobs. A coordinator accepts and
// manages jobs but distributes their grids as shard records through the
// shared store; workers lease shards from the same store and compute
// them. Deterministic per-cell seeding makes every topology — including
// one whose workers crash mid-shard and have their leases reclaimed —
// produce selections bit-identical to a single process.
type Role string

const (
	// RoleSingle computes jobs in-process (no distribution).
	RoleSingle Role = "single"
	// RoleCoordinator serves the API and shards job grids into the
	// shared store for workers; it never computes cells itself.
	RoleCoordinator Role = "coordinator"
	// RoleWorker leases and computes shards from the shared store; it
	// serves no API (see RunWorker).
	RoleWorker Role = "worker"
)

// Tenant is one API-key principal of a multi-tenant deployment: a
// bearer key, a stable name (persisted on the tenant's jobs), a fair-
// queueing weight and an optional queue quota. Configuring at least one
// tenant switches the API to mandatory key authentication; with no
// tenants configured the API is open and all jobs run as the anonymous
// weight-1 tenant.
type Tenant struct {
	// Key is the API key presented as "Authorization: Bearer <key>" or
	// "X-API-Key: <key>".
	Key string
	// Name identifies the tenant in job records, fair-queue accounting
	// and operator tooling. Must be unique across tenants.
	Name string
	// Weight is the tenant's weighted-fair-queueing share; under
	// contention tenants dequeue in proportion to their weights. Values
	// < 1 mean 1.
	Weight int
	// MaxQueued caps the tenant's waiting (queued + mid-submission)
	// jobs; submissions beyond it fail with ErrTenantQuota. 0 means no
	// per-tenant cap beyond the global QueueDepth.
	MaxQueued int
}

// Config sizes the Manager.
type Config struct {
	// QueueDepth bounds how many submitted jobs may wait for an executor;
	// submissions beyond it fail with ErrQueueFull. A batch needs one
	// slot per dataset. 0 means 64.
	QueueDepth int
	// MaxRunningJobs is the number of job executors — how many selections
	// may be in the running state at once. 0 means 2.
	MaxRunningJobs int
	// WorkerBudget is the global number of fold×parameter tasks executing
	// at once across ALL running jobs (the capacity of the shared
	// runner.Limiter). 0 means one per CPU.
	WorkerBudget int
	// RetainFinished bounds how many finished (done/failed/cancelled) jobs
	// the store keeps; older finished jobs are evicted. 0 means 64.
	RetainFinished int
	// MaxBodyBytes caps the request body (and hence the CSV dataset(s)) of
	// a submission. 0 means 32 MiB.
	MaxBodyBytes int64
	// Store persists job records. The manager replays it on startup and
	// mirrors every job transition into it. Nil means a fresh in-memory
	// store (no durability). The manager never closes the store; its
	// owner does, after Shutdown.
	Store store.Store
	// Role selects single-process or coordinator operation ("" means
	// RoleSingle). A coordinator requires a Store that supports atomic
	// updates (store.Updater — both built-in stores do); jobs whose
	// scorer cannot be sharded (validity indices) fall back to local
	// execution even on a coordinator.
	Role Role
	// Poll is the coordinator's shard-watch interval; 0 means 100ms.
	// Workers take theirs from WorkerConfig.
	Poll time.Duration
	// Tenants, when non-empty, enables per-tenant API keys with weighted
	// fair queueing: every /v1 request must present a configured key,
	// and each tenant's jobs are scheduled under its Weight and bounded
	// by its MaxQueued quota. Empty means an open API with a single
	// anonymous weight-1 tenant (the pre-multi-tenant behavior).
	Tenants []Tenant
	// DisableMetrics hides GET /metrics from the API handler (cvcpd
	// -metrics=false). Instrumentation still runs; only the exposition
	// endpoint disappears.
	DisableMetrics bool
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxRunningJobs <= 0 {
		c.MaxRunningJobs = 2
	}
	if c.WorkerBudget <= 0 {
		c.WorkerBudget = runtime.GOMAXPROCS(0)
	}
	if c.RetainFinished <= 0 {
		c.RetainFinished = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.Store == nil {
		c.Store = store.NewMemory()
	}
	if c.Role == "" {
		c.Role = RoleSingle
	}
	return c
}
