// Package dist distributes one CVCP selection's cell grid across
// processes sharing a single store — the coordinator/worker split of the
// cvcpd job manager.
//
// The unit of distribution is the cell: one (candidate, parameter, fold)
// clustering-and-score, indexed by its canonical position in the grid's
// linearization (see cvcp.CellPlan). Because every cell's seed and fold
// assignment derive from the job spec alone, any process that can decode
// the spec computes any cell bit-identically; distribution is therefore
// pure work division, never a source of nondeterminism.
//
// Roles, over one shared store (store.OpenShared in production, any
// Store+Updater in tests):
//
//   - The Coordinator cuts the grid into shards of whole (candidate,
//     parameter) columns and publishes one pending shard record per
//     shard, then polls those records: it reports lease transitions,
//     reads each finished shard's scores from its record, and when all
//     shards are done returns the assembled per-cell score vector —
//     which the caller merges with cvcp.CellPlan.Finalize, the same
//     reduction the single-node path runs.
//   - Workers scan for shard records that are pending — or leased but
//     expired, the crash-recovery path — and acquire them by
//     compare-and-swap: set themselves as owner, bump the lease epoch,
//     stamp an expiry. A worker plans from the record of the job its
//     shard names: the job store's own record, which carries the spec
//     and the dataset payload while the job runs. A heartbeat renews the
//     lease at a third of its TTL; a worker that loses its lease (expired
//     and reclaimed, or the job was cancelled and its records deleted)
//     aborts the computation and writes nothing. On success the worker
//     finishes the shard with one more compare-and-swap that writes the
//     scores into the shard record and marks it done.
//
// A shard record is the shard's only record, and every transition a
// worker makes to it — heartbeat or done — is guarded by the owner and
// lease epoch it acquired with. Crash recovery is recomputation: a
// kill -9'd worker simply stops renewing, its shards' leases expire, and
// any worker re-acquires them with a higher epoch and produces the same
// bits. A worker whose lease was reclaimed writes nothing when it
// finishes: the epoch check rejects its done transition, so the
// reclaimer's record is never touched. A restarted coordinator deletes
// the job's stale records and replans from the spec — every shard
// recomputes deterministically, so the selection is unchanged.
//
// Scores travel as IEEE-754 bit patterns ([]uint64), not JSON floats:
// the coordinator reassembles exactly the bits the worker computed, NaN
// payloads included, so the distributed result is bit-identical to the
// single-node one by construction rather than by rounding luck.
package dist

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"cvcp/internal/store"
)

// Store is what distribution requires of the shared store: the job-store
// contract plus the atomic read-modify-write that shard leases are built
// on. store.File (opened by Open or OpenShared) and store.Memory both
// satisfy it.
type Store interface {
	store.Store
	store.Updater
}

// Shard lifecycle states, kept in the shard record's Status field.
const (
	ShardPending = "pending" // unleased: any worker may acquire
	ShardLeased  = "leased"  // owned; reclaimable once the lease expires
	ShardDone    = "done"    // scores or error written; terminal
)

// ShardState is the payload of a shard record: one contiguous cell range,
// its lease and, once done, its result.
type ShardState struct {
	// Job is the owning job's ID.
	Job string `json:"job"`
	// Index is the shard's position in the job's shard sequence.
	Index int `json:"index"`
	// Lo and Hi bound the shard's cell range [Lo, Hi).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Cells is the total cell count of the grid — the worker
	// cross-checks it against the plan it resolves, so a spec/plan
	// mismatch fails loudly instead of computing garbage.
	Cells int `json:"cells"`
	// Owner is the worker holding the lease; empty while pending.
	Owner string `json:"owner,omitempty"`
	// Epoch counts lease acquisitions. A worker's right to transition
	// its shard is conditioned on the epoch it acquired at, so a worker
	// whose lease was reclaimed cannot overwrite the reclaimer's state.
	Epoch int `json:"epoch,omitempty"`
	// ExpiresUnixMilli is the lease deadline; a shard whose deadline
	// passed may be re-acquired by any worker. Wall-clock milliseconds,
	// so processes on one machine (the supported topology: shared store
	// directory) agree on expiry.
	ExpiresUnixMilli int64 `json:"expires,omitempty"`
	// ScoreBits holds math.Float64bits of each cell score in [Lo, Hi),
	// in cell order — the bit-exact transport that makes the merged
	// result identical to a single-node run. Set by the done transition.
	ScoreBits []uint64 `json:"score_bits,omitempty"`
	// Reused counts the cells of [Lo, Hi) the worker served from the
	// shared cell cache instead of computing — observability for
	// incremental re-selection (a cached score is bit-identical to the
	// computation it replaced, so Reused never affects ScoreBits).
	Reused int `json:"reused,omitempty"`
	// Error, when non-empty, is the shard's failure message; ScoreBits
	// is empty. Cell errors are deterministic (a function of spec and
	// cell), so every recomputation reports the same failure.
	Error string `json:"error,omitempty"`
}

// Record ID construction. Shard records share the job store with the
// manager's "job-..." records; the manager ignores foreign prefixes when
// restoring, and the coordinator deletes a job's shard records as the
// job leaves the running state.

// ShardID returns the ID of the job's i'th shard record. The index is
// zero-padded so lexicographic store order equals shard order.
func ShardID(jobID string, i int) string { return fmt.Sprintf("shard-%s-%05d", jobID, i) }

const shardPrefix = "shard-"

// shardRecord wraps a ShardState into a store record with the given
// lifecycle status.
func shardRecord(st ShardState, status string) (store.Record, error) {
	spec, err := json.Marshal(st)
	if err != nil {
		return store.Record{}, fmt.Errorf("dist: encoding shard state: %w", err)
	}
	return store.Record{ID: ShardID(st.Job, st.Index), Status: status, Spec: spec}, nil
}

// decodeShardState unwraps a shard record.
func decodeShardState(rec store.Record) (ShardState, error) {
	var st ShardState
	dec := json.NewDecoder(strings.NewReader(string(rec.Spec)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&st); err != nil {
		return ShardState{}, fmt.Errorf("dist: decoding shard record %s: %w", rec.ID, err)
	}
	return st, nil
}

// encodeScores converts scores to their IEEE-754 bit patterns.
func encodeScores(scores []float64) []uint64 {
	bits := make([]uint64, len(scores))
	for i, s := range scores {
		bits[i] = math.Float64bits(s)
	}
	return bits
}

// decodeScores inverts encodeScores.
func decodeScores(bits []uint64) []float64 {
	scores := make([]float64, len(bits))
	for i, b := range bits {
		scores[i] = math.Float64frombits(b)
	}
	return scores
}
