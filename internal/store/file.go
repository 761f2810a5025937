package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

const (
	snapshotName = "jobs.snapshot.json"
	walName      = "jobs.wal.jsonl"

	// A shared store keeps its log under a name of its own, beside the
	// file every process of the topology flocks.
	sharedWALName  = "shared.wal.jsonl"
	sharedLockName = "shared.lock"

	// compactMinWAL is the write-ahead log length below which the file
	// store never compacts: snapshots cost a full rewrite, so tiny logs
	// are left alone.
	compactMinWAL = 256

	// snapshotVersion is the snapshot format this build writes. v0 (no
	// version field) held records only; v1 added per-job event logs.
	// Open refuses snapshots from the future rather than silently
	// dropping state it cannot represent.
	snapshotVersion = 1

	// eventSyncInterval bounds how long an event append may sit in the
	// OS buffer before a coalescing fsync makes it durable. Event
	// appends do not sync inline (the progress hot path must not
	// serialize on disk latency); record writes and Close act as sync
	// barriers in between.
	eventSyncInterval = 100 * time.Millisecond
)

// walEntry is one line of the write-ahead log: exactly one of Put,
// Delete or Events is set.
type walEntry struct {
	Put    *Record    `json:"put,omitempty"`
	Delete string     `json:"del,omitempty"`
	Events *walEvents `json:"ev,omitempty"`
}

// walEvents is one appended event batch of a job's event log.
type walEvents struct {
	ID     string  `json:"id"`
	Events []Event `json:"events"`
}

// snapshot is the on-disk snapshot document.
type snapshot struct {
	Version int                `json:"version,omitempty"`
	Records []Record           `json:"records"`
	Events  map[string][]Event `json:"events,omitempty"`
}

// File is the durable Store: every Put/Delete/AppendEvents is appended
// to a write-ahead log of framed JSON lines (see framing.go). Opening a
// directory replays the log — trimming a torn final line from a crash
// mid-append — and serves the resulting state. A File is opened in one
// of two modes:
//
//   - Open: the store belongs to one process. The full state (records
//     plus event logs) is periodically compacted into a snapshot so the
//     log stays short, and the log is replayed on top of it.
//   - OpenShared: the store is one handle of a log that several
//     processes (a distributed coordinator and its workers, see
//     internal/dist) open in the same directory, each observing the
//     others' writes. Every operation runs inside an flock-guarded
//     critical section: it takes the exclusive lock, replays any log
//     suffix appended by other processes since its last look
//     ("refresh"), performs its read or append, and releases the lock.
//     Because record writers sync before unlocking, a process that
//     acquires the lock sees every acknowledged write that preceded it —
//     the cross-process read-your-writes guarantee Update's
//     compare-and-swap relies on. A process crash never strands the
//     lock: the OS releases flock with the file descriptor.
//
// Durability model: a record entry is fsynced before the corresponding
// call returns, so a job submitted (or finished) before a crash is
// replayed after it. Event appends are written immediately but
// fsync-coalesced: the sync happens at the next record write, at the
// next eventSyncInterval tick, or at Close — whichever comes first — so
// a crash can lose only a suffix of recent events, and never events
// older than a record state they preceded. On a shared store the
// barrier spans processes: fsync flushes the file whichever handle
// wrote it, so any process's record write makes every event appended
// before it durable. Compaction is atomic (snapshot written to a temp
// file and renamed); a crash between the rename and the log truncation
// merely replays log entries that are already in the snapshot, which is
// idempotent.
//
// Only what a second process makes unsafe stays single-process: a
// shared store neither compacts nor sweeps orphans at open. It is built
// for the bounded coordination state of a running topology (job and
// shard records, which the coordinator deletes as jobs finish), not for
// long-lived archives. Deleted state stops occupying memory but its log
// lines remain until the directory is recycled.
type File struct {
	dir string

	// compactMu serializes whole compactions (including Close's final
	// one). It is always acquired BEFORE mu; the heavy phase of a
	// compaction — marshaling and fsyncing the snapshot — runs under
	// compactMu alone, so Put/Delete/AppendEvents proceed meanwhile and
	// event publishers (who hold job mutexes upstream) are never
	// stalled behind a snapshot rewrite.
	compactMu sync.Mutex

	mu        sync.Mutex
	tab       *table
	wal       *os.File // O_APPEND handle, also read by replay
	lock      *os.File // the flocked file of a shared store; nil for Open's
	walLen    int      // entries appended since the last compaction
	walSize   int64    // bytes of complete, valid entries in the log file (on a shared store, the prefix this handle has applied)
	dirty     bool     // written-but-unsynced entries pending in the log
	syncArmed bool     // a coalescing sync timer is scheduled
	closed    bool
}

// Shared is another name for File, for handles opened by OpenShared.
type Shared = File

// Open loads (or initializes) a single-process file store in dir,
// creating the directory if needed.
func Open(dir string) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	f := &File{dir: dir, tab: newTable()}
	if err := f.loadSnapshot(); err != nil {
		return nil, err
	}
	wal, err := openWAL(filepath.Join(dir, walName))
	if err != nil {
		return nil, fmt.Errorf("store: opening WAL: %w", err)
	}
	f.wal = wal
	if err := f.refreshLocked(); err != nil {
		wal.Close()
		return nil, err
	}
	// Sweep event logs with no owning record: a crash in the submission
	// window (queued event appended, record Put never acknowledged)
	// leaves one behind, the job was never visible, and nothing else
	// would ever delete it — it would ride every future snapshot, and a
	// re-issued ID would have its first events silently deduped against
	// the stale log. The sweep is made DURABLE by appending a delete
	// entry: an in-memory-only sweep would leave the stale "ev" lines in
	// the WAL, and a second crash after the ID was re-issued would
	// replay them ahead of the new job's events — resurrecting the
	// orphan and deduping the new job's first events away.
	for id := range f.tab.events {
		if _, ok := f.tab.recs[id]; !ok {
			if err := f.append(walEntry{Delete: id}); err != nil {
				f.wal.Close()
				return nil, fmt.Errorf("store: sweeping orphan event log %s: %w", id, err)
			}
		}
	}
	// Sweep cell-cache records whose owning dataset record is gone: a
	// crash between a dataset eviction's record delete and its cell sweep
	// (a DeletePrefix over the owner's cell IDs) leaves them behind, and —
	// like orphan event logs —
	// nothing else would ever delete them. Durable for the same reason:
	// an in-memory-only sweep would resurrect the orphans from the WAL on
	// the next Open.
	var orphanCells []string
	for _, id := range f.tab.ids {
		owner, ok := ParseCellOwner(id)
		if !ok {
			continue
		}
		if _, ok := f.tab.recs[owner]; !ok {
			orphanCells = append(orphanCells, id)
		}
	}
	for _, id := range orphanCells {
		if err := f.append(walEntry{Delete: id}); err != nil {
			f.wal.Close()
			return nil, fmt.Errorf("store: sweeping orphan cell record %s: %w", id, err)
		}
	}
	return f, nil
}

// OpenShared opens (or initializes) a shared store in dir, creating the
// directory if needed. Every process of a topology opens the same dir.
func OpenShared(dir string) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	lock, err := os.OpenFile(filepath.Join(dir, sharedLockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening shared lock: %w", err)
	}
	wal, err := openWAL(filepath.Join(dir, sharedWALName))
	if err != nil {
		lock.Close()
		return nil, fmt.Errorf("store: opening shared WAL: %w", err)
	}
	f := &File{dir: dir, tab: newTable(), wal: wal, lock: lock}
	// An empty critical section refreshes, so OpenShared surfaces an
	// unreadable or corrupt log immediately rather than on first use.
	if err := f.withLock(func() error { return nil }); err != nil {
		wal.Close()
		lock.Close()
		return nil, err
	}
	return f, nil
}

// openWAL opens a log for appending and for replay's reads.
func openWAL(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
}

func (f *File) loadSnapshot() error {
	data, err := os.ReadFile(filepath.Join(f.dir, snapshotName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: reading snapshot: %w", err)
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("store: corrupt snapshot %s: %w", snapshotName, err)
	}
	if snap.Version > snapshotVersion {
		return fmt.Errorf("store: snapshot %s is format v%d; this build reads up to v%d",
			snapshotName, snap.Version, snapshotVersion)
	}
	for _, rec := range snap.Records {
		f.tab.put(rec)
	}
	for id, evs := range snap.Events {
		f.tab.appendEvents(id, evs)
	}
	return nil
}

// withLock runs fn inside the store's critical section: mu, plus — on a
// shared store — the flock and a refresh, so fn sees every write any
// process acknowledged before it.
func (f *File) withLock(fn func() error) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if f.lock == nil {
		return fn()
	}
	if err := flockEx(f.lock); err != nil {
		return fmt.Errorf("store: locking shared store: %w", err)
	}
	err := f.refreshLocked()
	if err == nil {
		err = fn()
	}
	if uerr := flockUn(f.lock); err == nil && uerr != nil {
		err = fmt.Errorf("store: unlocking shared store: %w", uerr)
	}
	return err
}

// refreshLocked replays the log past walSize — at Open the whole log, on
// a shared store whatever other processes appended since this handle
// last looked — and trims what replay did not accept. A torn tail left
// in place would fuse with the next append into one damaged line, and
// the next replay would drop that append with it. On a shared store the
// trim is safe because writers append whole lines under the flock: an
// unterminated tail seen under the flock is a crashed writer's. Callers
// hold mu and, on a shared store, the flock.
func (f *File) refreshLocked() error {
	st, err := f.wal.Stat()
	if err != nil {
		return fmt.Errorf("store: stating WAL: %w", err)
	}
	size := st.Size()
	if size <= f.walSize {
		return nil
	}
	data := make([]byte, size-f.walSize)
	if _, err := f.wal.ReadAt(data, f.walSize); err != nil {
		return fmt.Errorf("store: reading WAL: %w", err)
	}
	entries, valid, err := f.replay(data)
	if err != nil {
		return err
	}
	f.walLen += entries
	f.walSize += valid
	if f.walSize < size {
		if err := f.wal.Truncate(f.walSize); err != nil {
			return fmt.Errorf("store: trimming torn WAL tail: %w", err)
		}
	}
	return nil
}

// replay applies the log lines in data, which starts at a line
// boundary. It returns the entry count and the byte length of the
// accepted prefix. Only newline-terminated lines count: every append
// writes its line whole, newline last, so an unterminated final line is
// a write torn by a crash, never an acknowledged one, even when what
// survives of it is a valid frame. A malformed line with entries after
// it is tolerated only when nothing after it is a record entry: event
// entries are the only unsynced writes (their fsyncs coalesce), so a
// crash can garble any part of the since-last-sync suffix — which by
// construction contains no record entries — and losing that suffix is
// within the event-durability contract. A corrupt line with a record
// entry (put/delete) anywhere after it is real damage, and an error:
// records are fsynced per write, so silently dropping one would lose
// acknowledged state — unless the line is a short frame (see
// shortFrame), which an older shared store left newline-terminated
// before later records: a write cut short was never acknowledged, so
// replay skips it and goes on.
func (f *File) replay(data []byte) (entries int, valid int64, err error) {
	data = data[:bytes.LastIndexByte(data, '\n')+1]
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		line, next := data[off:off+nl], off+nl+1
		if len(bytes.TrimSpace(line)) == 0 {
			off = next
			continue
		}
		var e walEntry
		if err := unmarshalWALLine(line, &e); err != nil {
			// Scan from the corrupt line itself: a damaged final line is
			// always tolerated (a record write holds the lock through its
			// fsync, so a torn record write is unacknowledged), and
			// interior damage is tolerated only when no intact record
			// entry follows it.
			if next < len(data) && recordEntryIn(data[off:]) {
				if !shortFrame(line) {
					return 0, 0, fmt.Errorf("store: corrupt WAL entry %d: %w", f.walLen+entries+1, err)
				}
				off = next
				continue
			}
			return entries, int64(off), nil // torn tail (possibly spanning coalesced event appends): drop it
		}
		f.tab.apply(e)
		entries++
		off = next
	}
	return entries, int64(off), nil
}

// apply installs one log entry in the resident state: the one apply
// path of replay and of every append.
func (t *table) apply(e walEntry) {
	switch {
	case e.Put != nil:
		t.put(*e.Put)
	case e.Delete != "":
		t.delete(e.Delete)
	case e.Events != nil:
		t.appendEvents(e.Events.ID, e.Events.Events)
	}
}

// unmarshalWALLine decodes one WAL line into e. Framed lines (see
// framing.go) are CRC-checked and their payload parsed; unframed lines
// are parsed as bare JSON — the v1 migration path, so logs written by
// pre-framing builds replay unchanged.
func unmarshalWALLine(line []byte, e *walEntry) error {
	if line[0] == frameMark {
		payload, ok := decodeFrame(line)
		if !ok {
			return fmt.Errorf("store: damaged WAL frame")
		}
		return json.Unmarshal(payload, e)
	}
	return json.Unmarshal(line, e)
}

// recordEntryIn reports whether any WAL line in data carries (or might
// carry) a record entry — the check that lets replay treat crash
// damage among coalesced event appends as a recoverable torn tail
// rather than fatal interior corruption. Framed lines are classified
// structurally: an intact frame is a record entry iff its payload
// decodes to a put/delete, and a damaged frame is not one (a torn
// record frame was never acknowledged — Put syncs before returning —
// so under the crash model a damaged frame can only be a coalesced
// event append). Unframed lines (v1 logs, or damage that ate the frame
// mark) keep the conservative v1 heuristic: a raw scan for the
// "put"/"del" keys, which still recognizes them in a line garbled
// beyond parsing and errs toward refusing — the loud failure (Open
// errors) over the silent one (an fsynced record vanishes).
func recordEntryIn(data []byte) bool {
	for len(data) > 0 {
		var line []byte
		if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
			line, data = data[:nl], data[nl+1:]
		} else {
			line, data = data, nil
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if line[0] == frameMark {
			payload, ok := decodeFrame(line)
			if !ok {
				continue // damaged frame: events-only under the crash model
			}
			var e walEntry
			if json.Unmarshal(payload, &e) == nil && (e.Put != nil || e.Delete != "") {
				return true
			}
			continue
		}
		if bytes.Contains(line, []byte(`"put":`)) || bytes.Contains(line, []byte(`"del":`)) {
			return true
		}
	}
	return false
}

// append frames and writes one WAL entry, makes it durable — a record
// entry (put or delete) by an inline fsync, an event batch by the
// coalescing sync — and applies it to the resident state. Callers hold
// the critical section (see withLock), so the log ends at walSize. On
// failure the log is truncated back to that length: a partial line left
// in place would poison every later append (the next replay would see
// interior corruption and refuse). A failed inline sync also truncates
// — the entry has not been applied in memory yet, so disk and memory
// agree that it never happened. Coalesced syncs (flushEvents) never
// truncate: their entries were already reported as appended.
func (f *File) append(e walEntry) error {
	payload, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("store: encoding WAL entry: %w", err)
	}
	data := encodeFrame(payload)
	if _, err := f.wal.Write(data); err != nil {
		_ = f.wal.Truncate(f.walSize)
		return fmt.Errorf("store: appending WAL entry: %w", err)
	}
	if e.Events != nil {
		f.scheduleSyncLocked()
	} else {
		if err := syncWAL(f.wal); err != nil {
			_ = f.wal.Truncate(f.walSize)
			return fmt.Errorf("store: syncing WAL: %w", err)
		}
		f.dirty = false // the sync covered every earlier unsynced entry too
	}
	f.walSize += int64(len(data))
	f.walLen++
	mWALAppends.Inc()
	f.tab.apply(e)
	return nil
}

// syncWAL fsyncs a log and records the latency.
func syncWAL(wal *os.File) error {
	start := time.Now()
	if err := wal.Sync(); err != nil {
		return err
	}
	mWALFsync.Observe(time.Since(start).Seconds())
	return nil
}

// scheduleSyncLocked marks unsynced bytes pending and arms the
// coalescing timer (at most one outstanding). Callers hold mu.
func (f *File) scheduleSyncLocked() {
	f.dirty = true
	if f.syncArmed {
		return
	}
	f.syncArmed = true
	time.AfterFunc(eventSyncInterval, f.flushEvents)
}

// flushEvents is the coalescing timer body: one fsync covering every
// event appended since the last sync barrier. The fsync itself runs
// OUTSIDE f.mu — os.File.Sync is safe concurrently with Write, and
// holding the store mutex across disk latency would stall every event
// append (and, transitively, the job mutex of each publisher). A write
// landing while the sync is in flight re-marks dirty and re-arms the
// timer, so it is covered by the next flush at the latest. It needs no
// flock either: fsync flushes whatever any process wrote.
func (f *File) flushEvents() {
	f.mu.Lock()
	f.syncArmed = false
	if f.closed || !f.dirty {
		f.mu.Unlock()
		return
	}
	f.dirty = false
	wal := f.wal
	f.mu.Unlock()
	if syncWAL(wal) == nil {
		return
	}
	// Transient sync failure (EIO and kin): re-mark the bytes unsynced
	// and re-arm the timer, so the coalescing window keeps retrying
	// instead of silently abandoning durability until the next barrier.
	f.mu.Lock()
	if !f.closed {
		f.scheduleSyncLocked()
	}
	f.mu.Unlock()
}

// writeSnapshot durably installs a snapshot document (see installFile).
// The snapshot must be durably on disk BEFORE the log shrinks; otherwise
// a crash could leave both an unflushed snapshot and a truncated log.
func (f *File) writeSnapshot(snap snapshot) error {
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("store: encoding snapshot: %w", err)
	}
	return installFile(filepath.Join(f.dir, snapshotName), "snapshot", data)
}

// installFile durably replaces path with data: write to a temp file,
// fsync it, rename into place, fsync the directory. what names the file
// in errors.
func installFile(path, what string, data []byte) error {
	tmp := path + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating %s: %w", what, err)
	}
	if _, err := tf.Write(data); err != nil {
		tf.Close()
		return fmt.Errorf("store: writing %s: %w", what, err)
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return fmt.Errorf("store: syncing %s: %w", what, err)
	}
	if err := tf.Close(); err != nil {
		return fmt.Errorf("store: closing %s: %w", what, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: installing %s: %w", what, err)
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync() // make the rename durable; best-effort on filesystems without dir fsync
		d.Close()
	}
	return nil
}

// compactLocked rewrites the snapshot from the resident state and
// truncates the log, synchronously. Callers hold mu (and, by the lock
// order, compactMu). Only Close uses this form — nothing contends at
// shutdown; live compactions go through compact, which keeps mu
// released during the heavy phase.
func (f *File) compactLocked() error {
	if err := f.writeSnapshot(f.buildSnapshotLocked(false)); err != nil {
		return err
	}
	// The snapshot now durably holds everything: restart the log. A crash
	// right here replays pre-truncation entries over an equal snapshot,
	// which is harmless (record puts overwrite; event appends dedup).
	if err := f.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: truncating WAL: %w", err)
	}
	f.walLen = 0
	f.walSize = 0
	f.dirty = false // everything unsynced is now in the snapshot
	mCompactions.Inc()
	return nil
}

// buildSnapshotLocked assembles the snapshot document from the resident
// state. clone deep-copies records and events — required when the
// snapshot outlives the mutex (the live compaction path marshals it
// unlocked). Callers hold mu.
func (f *File) buildSnapshotLocked(clone bool) snapshot {
	snap := snapshot{Version: snapshotVersion, Records: make([]Record, 0, len(f.tab.ids))}
	for _, id := range f.tab.ids {
		rec := f.tab.recs[id]
		if clone {
			rec = rec.Clone()
		}
		snap.Records = append(snap.Records, rec)
	}
	if len(f.tab.events) == 0 {
		return snap
	}
	if !clone {
		snap.Events = f.tab.events
		return snap
	}
	snap.Events = make(map[string][]Event, len(f.tab.events))
	for id, evs := range f.tab.events {
		snap.Events[id] = cloneEvents(evs)
	}
	return snap
}

// wantCompactLocked reports whether the log has grown well past the
// resident state (records plus event log entries) — the point where
// replay would mostly apply overwritten or deleted state. A shared
// store never compacts: other processes replay the log it would
// rewrite. Callers hold mu.
func (f *File) wantCompactLocked() bool {
	return f.lock == nil && f.walLen >= compactMinWAL && f.walLen >= 4*(len(f.tab.recs)+f.tab.numEvents)
}

// compact is the live-path compaction: the resident state is CLONED
// under mu, the snapshot is marshaled and fsynced with mu released (so
// concurrent Put/Delete/AppendEvents — and, transitively, the job
// mutexes of event publishers — never stall behind it), and the WAL is
// then cut down to just the entries appended during the heavy phase.
// Crash windows are all replay-safe: until the snapshot rename the old
// snapshot+WAL pair is intact, and after it the (full or suffix) WAL
// replays idempotently over the new snapshot.
func (f *File) compact() error {
	f.compactMu.Lock()
	defer f.compactMu.Unlock()

	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	if !f.wantCompactLocked() {
		f.mu.Unlock()
		return nil // a racing compaction already ran
	}
	snap := f.buildSnapshotLocked(true)
	coveredSize := f.walSize
	coveredLen := f.walLen
	f.mu.Unlock()

	if err := f.writeSnapshot(snap); err != nil {
		return err
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if err := f.cutWALLocked(coveredSize, coveredLen); err != nil {
		return err
	}
	mCompactions.Inc()
	return nil
}

// cutWALLocked replaces the WAL with just its suffix past coveredSize —
// the entries appended while the snapshot (which covers everything
// before them) was being written. Callers hold mu and compactMu. The
// new log is written aside, fsynced and renamed into place, then the
// append handle is reopened on it; a crash at any point leaves either
// the old full WAL or the new suffix WAL, both of which replay
// correctly over the installed snapshot.
func (f *File) cutWALLocked(coveredSize int64, coveredLen int) error {
	path := filepath.Join(f.dir, walName)
	var suffix []byte
	if f.walSize > coveredSize {
		suffix = make([]byte, f.walSize-coveredSize)
		if _, err := f.wal.ReadAt(suffix, coveredSize); err != nil {
			return fmt.Errorf("store: reading WAL suffix: %w", err)
		}
	}
	if err := installFile(path, "compacted WAL", suffix); err != nil {
		return err
	}
	wal, err := openWAL(path)
	if err != nil {
		// The old handle now points at the renamed-over (unlinked)
		// inode: writing to it would "succeed" while landing nowhere.
		// Fail the store loudly rather than lose durability silently.
		f.closed = true
		f.wal.Close()
		return fmt.Errorf("store: reopening WAL after compaction: %w", err)
	}
	f.wal.Close()
	f.wal = wal
	f.walSize = int64(len(suffix))
	f.walLen -= coveredLen
	f.dirty = false // the new WAL was fsynced whole
	return nil
}

// commit is the critical section of a record write: fn picks, from the
// resident state, the entry to append (nil for none), and commit
// appends it. A write can leave a single-process log due for
// compaction, which then runs after the critical section. A compaction
// failure is NOT a write failure: the record is already durable in the
// WAL (reporting an error here would make the caller treat a persisted
// record as unpersisted — a ghost a restart would resurrect).
// Compaction retries at the next threshold and on Close.
func (f *File) commit(fn func() (*walEntry, error)) error {
	want := false
	err := f.withLock(func() error {
		e, err := fn()
		if err != nil || e == nil {
			return err
		}
		if err := f.append(*e); err != nil {
			return err
		}
		want = f.wantCompactLocked()
		return nil
	})
	if want {
		_ = f.compact()
	}
	return err
}

// Put inserts or overwrites rec under rec.ID, durably.
func (f *File) Put(rec Record) error {
	rec = rec.Clone()
	return f.commit(func() (*walEntry, error) { return &walEntry{Put: &rec}, nil })
}

// Update applies an atomic read-modify-write to the record under id
// (see Updater). The write, if any, is durable before Update returns,
// like Put's. On a shared store the critical section spans processes,
// making this the topology-wide compare-and-swap.
func (f *File) Update(id string, fn func(cur Record, ok bool) (Record, bool, error)) (Record, error) {
	var out Record
	err := f.commit(func() (*walEntry, error) {
		cur, ok := f.tab.recs[id]
		if ok {
			cur = cur.Clone()
		}
		var write bool
		var err error
		out, write, err = fn(cur, ok)
		if err != nil || !write {
			return nil, err
		}
		if out.ID != id {
			return nil, fmt.Errorf("store: update of %q returned record %q", id, out.ID)
		}
		stored := out.Clone()
		return &walEntry{Put: &stored}, nil
	})
	if err != nil {
		return Record{}, err
	}
	return out, nil
}

// Get returns the record under id and whether it exists.
func (f *File) Get(id string) (rec Record, ok bool, err error) {
	err = f.withLock(func() error {
		if rec, ok = f.tab.recs[id]; ok {
			rec = rec.Clone()
		}
		return nil
	})
	return rec, ok, err
}

// List pages through the records in ascending ID order.
func (f *File) List(cursor string, limit int) (recs []Record, next string, err error) {
	err = f.withLock(func() error {
		recs, next = f.tab.list(cursor, limit)
		return nil
	})
	return recs, next, err
}

// Delete removes the record under id (and the job's event log), durably.
func (f *File) Delete(id string) error {
	return f.commit(func() (*walEntry, error) {
		_, haveRec := f.tab.recs[id]
		_, haveEvs := f.tab.events[id]
		if !haveRec && !haveEvs {
			return nil, nil
		}
		return &walEntry{Delete: id}, nil
	})
}

// AppendEvents appends the batch to the job's event log. The write lands
// in the log immediately; its fsync is coalesced (see the File doc), so
// the progress hot path never waits on disk latency.
func (f *File) AppendEvents(id string, events []Event) error {
	if len(events) == 0 {
		return nil
	}
	evs := cloneEvents(events)
	// No compaction here, deliberately: the server appends from inside
	// the job mutex (the progress hot path). The appended entries still
	// count toward walLen, so the next Put/Delete — always outside any
	// job mutex — triggers the compaction they accrue (and even that
	// compaction holds the store mutex only to clone state and swap the
	// WAL, never across the snapshot write).
	return f.withLock(func() error {
		return f.append(walEntry{Events: &walEvents{ID: id, Events: evs}})
	})
}

// EventsSince returns the job's events with Seq > afterSeq, in order.
func (f *File) EventsSince(id string, afterSeq int) (evs []Event, err error) {
	err = f.withLock(func() error {
		evs = f.tab.eventsSince(id, afterSeq)
		return nil
	})
	return evs, err
}

// Len reports how many records are resident.
func (f *File) Len() (n int, err error) {
	err = f.withLock(func() error {
		n = len(f.tab.recs)
		return nil
	})
	return n, err
}

// Close releases the store. A single-process store first compacts into
// its snapshot; compactMu is taken first (the lock order), so an
// in-flight live compaction finishes before the final synchronous one
// runs. A shared store leaves its log as-is for the other processes of
// the topology, after one last fsync of any coalesced event appends.
func (f *File) Close() error {
	f.compactMu.Lock()
	defer f.compactMu.Unlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	var err error
	if f.lock == nil {
		err = f.compactLocked()
	} else if f.dirty {
		err = syncWAL(f.wal)
	}
	if cerr := f.wal.Close(); err == nil {
		err = cerr
	}
	if f.lock != nil {
		if cerr := f.lock.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
