package store

import "cvcp/internal/metrics"

// File-store metric families (see internal/metrics): WAL append volume,
// fsync latency — both the inline per-commit syncs and the coalesced
// event-log syncs — and snapshot compactions. Every File in the process
// feeds them, opened by Open or by OpenShared; only Open's compact.
var (
	mWALAppends = metrics.NewCounter("cvcpd_wal_appends_total",
		"WAL entries appended (records, deletes and event batches).")
	mWALFsync = metrics.NewHistogram("cvcpd_wal_fsync_seconds",
		"WAL fsync latency, inline commit syncs and coalesced event syncs alike.", metrics.DurationBuckets)
	mCompactions = metrics.NewCounter("cvcpd_store_compactions_total",
		"Snapshot compactions performed (WAL rewritten into a snapshot).")
)
