// Command cvcpd serves CVCP model selection over HTTP: clients POST a CSV
// dataset plus selection options, the server queues the job, runs its
// fold×parameter grid on a bounded machine-wide worker budget through the
// selection engine, and exposes status, results and a live progress stream.
//
//	cvcpd -addr :8080 -workers 8 -max-running 2 -store-dir /var/lib/cvcpd
//
// Endpoints (docs/api.md is the full reference):
//
//	POST   /v1/jobs             submit (CSV body + query options, multipart,
//	                            or JSON with inline CSV)
//	GET    /v1/jobs             list jobs, cursor-paginated (?limit=&cursor=)
//	GET    /v1/jobs/{id}        status, progress and result
//	DELETE /v1/jobs/{id}        cancel (a queued job leaves the queue at once)
//	GET    /v1/jobs/{id}/events progress as Server-Sent Events
//	POST   /v1/batches          submit N datasets sharing one option set
//	GET    /v1/batches/{id}     aggregate per-item batch status
//	GET    /healthz             liveness
//
// With -store-dir the job store is durable: every job transition and
// progress event is appended to a write-ahead log in that directory, and
// a restarted server lists the finished jobs — with their full SSE event
// histories, replayed with identical sequence numbers — and re-queues
// (and deterministically re-runs) whatever was interrupted. Without it,
// jobs live in memory only.
//
// The HTTP server runs with -read-header-timeout, -read-timeout and
// -idle-timeout armed but no global write timeout: SSE streams stay open
// as long as the job runs, protected instead by a per-event write
// deadline inside the handler.
//
// On SIGTERM/SIGINT the server stops accepting jobs, gives running and
// queued jobs -drain-timeout to finish, force-cancels whatever remains,
// compacts the store and exits.
//
// Distributed topologies (-role): a coordinator serves the same API but
// shards every distributable job's grid through the shared store, where
// worker processes — started with -role=worker over the same -store-dir —
// lease and compute the shards. Deterministic seeding makes any topology
// (including one that loses workers mid-shard) select bit-identically to
// a single process:
//
//	cvcpd -role=coordinator -store-dir /shared/cvcpd -addr :8080
//	cvcpd -role=worker      -store-dir /shared/cvcpd
//	cvcpd -role=worker      -store-dir /shared/cvcpd
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cvcp/internal/metrics"
	"cvcp/internal/server"
	"cvcp/internal/store"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "global worker budget: fold×parameter tasks executing at once across ALL jobs (0 = one per CPU)")
		maxRunning   = flag.Int("max-running", 2, "jobs in the running state at once")
		queueDepth   = flag.Int("queue", 64, "bounded FIFO queue depth; submissions beyond it are rejected")
		retain       = flag.Int("retain", 64, "finished jobs kept before oldest-first eviction")
		maxBody      = flag.Int64("max-body", 32<<20, "request body size limit in bytes")
		drainTimeout = flag.Duration("drain-timeout", 2*time.Minute, "how long a SIGTERM drain waits for jobs before force-cancelling")
		storeDir     = flag.String("store-dir", "", "directory for the durable job store (empty = in-memory, lost on exit)")
		readHeader   = flag.Duration("read-header-timeout", 10*time.Second, "time limit for reading a request's headers")
		readTimeout  = flag.Duration("read-timeout", 5*time.Minute, "time limit for reading a whole request, body included — size it to -max-body over your slowest client link (0 = none)")
		idleTimeout  = flag.Duration("idle-timeout", 2*time.Minute, "keep-alive idle connection timeout")
		role         = flag.String("role", "single", "topology role: single (compute in-process), coordinator (shard jobs into the shared store), worker (lease and compute shards; serves no API)")
		workerID     = flag.String("worker-id", "", "unique worker name in the topology (default hostname-pid)")
		leaseTTL     = flag.Duration("lease-ttl", 0, "shard lease lifetime without heartbeat before reclaim (0 = 10s)")
		poll         = flag.Duration("poll", 0, "shard watch/scan interval (0 = 100ms)")
		metricsOn    = flag.Bool("metrics", true, "serve Prometheus metrics at GET /metrics on the API listener")
		pprofAddr    = flag.String("pprof-addr", "", "auxiliary listen address serving /debug/pprof/ and /metrics, every role including workers (empty = off)")
		apiKeys      = flag.String("api-keys", "", "API key file enabling tenant auth and weighted fair queueing (lines: <key> <tenant> [weight [max_queued]]; empty = open API)")
	)
	flag.Parse()

	cfg := server.Config{
		QueueDepth:     *queueDepth,
		MaxRunningJobs: *maxRunning,
		WorkerBudget:   *workers,
		RetainFinished: *retain,
		MaxBodyBytes:   *maxBody,
		Poll:           *poll,
		DisableMetrics: !*metricsOn,
	}
	if *apiKeys != "" {
		f, err := os.Open(*apiKeys)
		if err != nil {
			fatal(err)
		}
		tenants, err := server.ParseTenants(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("-api-keys %s: %w", *apiKeys, err))
		}
		cfg.Tenants = tenants
		fmt.Fprintf(os.Stderr, "cvcpd: API keys enabled for %d tenant(s)\n", len(tenants))
	}
	startAux(*pprofAddr)
	var closeStore func() error
	switch server.Role(*role) {
	case server.RoleSingle:
		if *storeDir != "" {
			fileStore, err := store.Open(*storeDir)
			if err != nil {
				fatal(err)
			}
			if n, err := fileStore.Len(); err == nil && n > 0 {
				fmt.Fprintf(os.Stderr, "cvcpd: replaying %d record(s) from %s\n", n, *storeDir)
			}
			cfg.Store = fileStore
			closeStore = fileStore.Close
		}
	case server.RoleCoordinator, server.RoleWorker:
		// Distributed roles share one store directory across processes;
		// the multi-process store coordinates through a file lock.
		if *storeDir == "" {
			fatal(fmt.Errorf("-role=%s requires -store-dir (the topology's shared store)", *role))
		}
		shared, err := store.OpenShared(*storeDir)
		if err != nil {
			fatal(err)
		}
		cfg.Store = shared
		cfg.Role = server.Role(*role)
		closeStore = shared.Close
	default:
		fatal(fmt.Errorf("unknown -role %q (want single, coordinator or worker)", *role))
	}

	if cfg.Role == server.RoleWorker {
		runWorker(cfg, *workerID, *workers, *leaseTTL, *poll, closeStore)
		return
	}

	mgr := server.NewManager(cfg)
	// No WriteTimeout: a global one would kill every SSE stream that
	// outlives it. The SSE handler arms a per-event write deadline
	// instead (and clears the read deadline for the stream's lifetime),
	// so dead clients still tear down within one timeout.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           server.NewHandler(mgr),
		ReadHeaderTimeout: *readHeader,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       *idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	ecfg := mgr.Config()
	fmt.Fprintf(os.Stderr, "cvcpd: listening on %s (workers=%d, max-running=%d, queue=%d)\n",
		*addr, ecfg.WorkerBudget, ecfg.MaxRunningJobs, ecfg.QueueDepth)

	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
	}

	// Graceful drain: reject new submissions, let accepted jobs finish (the
	// manager force-cancels them when the drain deadline passes), then close
	// the listener — by now every SSE stream has received its terminal event.
	fmt.Fprintln(os.Stderr, "cvcpd: draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := mgr.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "cvcpd: drain deadline hit, jobs force-cancelled: %v\n", err)
	}
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelHTTP()
	if err := srv.Shutdown(httpCtx); err != nil {
		srv.Close()
	}
	// Compact the final job states into the snapshot after the drain, so
	// the next start replays a clean store.
	if closeStore != nil {
		if err := closeStore(); err != nil {
			fmt.Fprintf(os.Stderr, "cvcpd: closing job store: %v\n", err)
		}
	}
	fmt.Fprintln(os.Stderr, "cvcpd: bye")
}

// runWorker is the headless worker role: no HTTP server, no job manager —
// just the shard lease/compute loop against the shared store until
// SIGTERM/SIGINT.
func runWorker(cfg server.Config, id string, workers int, leaseTTL, poll time.Duration, closeStore func() error) {
	if id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "cvcpd: worker %s computing shards (workers=%d)\n", id, workers)
	err := server.RunWorker(ctx, server.WorkerConfig{
		Store:    cfg.Store,
		ID:       id,
		Workers:  workers,
		LeaseTTL: leaseTTL,
		Poll:     poll,
	})
	if err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "cvcpd:", err)
	}
	if closeStore != nil {
		if err := closeStore(); err != nil {
			fmt.Fprintf(os.Stderr, "cvcpd: closing job store: %v\n", err)
		}
	}
	fmt.Fprintln(os.Stderr, "cvcpd: bye")
}

// startAux serves the operational auxiliary listener — /debug/pprof/ and
// /metrics — when -pprof-addr is set. It runs for every role: workers have
// no API listener, so this is their only exposition surface. The listener
// is deliberately separate from the API so profiling and scraping can stay
// on a private interface while the API faces clients.
func startAux(addr string) {
	if addr == "" {
		return
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /metrics", metrics.Handler())
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	fmt.Fprintf(os.Stderr, "cvcpd: pprof and metrics on %s\n", addr)
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "cvcpd: pprof listener: %v\n", err)
		}
	}()
}

func fatal(err error) {
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "cvcpd:", err)
		os.Exit(1)
	}
}
