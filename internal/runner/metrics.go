package runner

import "cvcp/internal/metrics"

// Engine metric families (see internal/metrics): how long grid tasks
// wait for a shared Limiter slot, how many slots are occupied, and the
// run cache's hit rate. Process-wide, like the engine's Limiter and
// Cache themselves.
var (
	mLimiterWait = metrics.NewHistogram("cvcpd_limiter_wait_seconds",
		"Time a grid task waited to acquire a shared worker-budget slot.", metrics.DurationBuckets)
	mLimiterInUse = metrics.NewGauge("cvcpd_limiter_slots_in_use",
		"Shared worker-budget slots currently held by executing tasks.")
	mCacheHits = metrics.NewCounter("cvcpd_runcache_hits_total",
		"Run-cache lookups that found (or joined the computation of) an existing entry.")
	mCacheMisses = metrics.NewCounter("cvcpd_runcache_misses_total",
		"Run-cache lookups that created a new entry.")
	mCellCacheHits = metrics.NewCounter("cvcpd_cellcache_hits_total",
		"Cell-cache lookups satisfied from the cell store without recomputing the cell.")
	mCellCacheMisses = metrics.NewCounter("cvcpd_cellcache_misses_total",
		"Cell-cache lookups that found no stored score and computed the cell.")
	mCellCacheWrites = metrics.NewCounter("cvcpd_cellcache_writes_total",
		"Computed cell scores written to the cell store.")
	mCellCacheWriteFailures = metrics.NewCounter("cvcpd_cellcache_write_failures_total",
		"Cell-cache write-backs that failed; the job keeps its computed score and the cell is recomputed next time.")
)
