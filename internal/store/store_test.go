package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// implementations returns a fresh instance of every Store implementation,
// so the contract tests below run against all of them.
func implementations(t *testing.T) map[string]Store {
	t.Helper()
	file, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	shared, err := OpenShared(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{"memory": NewMemory(), "file": file, "shared": shared}
}

func rec(n int, status string) Record {
	return Record{
		ID:      fmt.Sprintf("job-%06d", n),
		Status:  status,
		Created: time.Date(2026, 7, 30, 12, 0, n, 0, time.UTC),
		Spec:    json.RawMessage(fmt.Sprintf(`{"seed":%d}`, n)),
	}
}

func TestStoreContract(t *testing.T) {
	for name, s := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()

			// Empty store.
			if n, err := s.Len(); err != nil || n != 0 {
				t.Fatalf("empty Len = %d, %v", n, err)
			}
			if _, ok, err := s.Get("job-000001"); err != nil || ok {
				t.Fatalf("Get on empty store: ok=%v err=%v", ok, err)
			}
			recs, next, err := s.List("", 10)
			if err != nil || len(recs) != 0 || next != "" {
				t.Fatalf("List on empty store: %v, %q, %v", recs, next, err)
			}

			// Insert out of order; listing must come back sorted.
			for _, n := range []int{3, 1, 2, 5, 4} {
				if err := s.Put(rec(n, "queued")); err != nil {
					t.Fatal(err)
				}
			}
			if n, _ := s.Len(); n != 5 {
				t.Fatalf("Len = %d, want 5", n)
			}
			recs, next, err = s.List("", 0)
			if err != nil || next != "" {
				t.Fatalf("full List: next=%q err=%v", next, err)
			}
			for i, r := range recs {
				if want := fmt.Sprintf("job-%06d", i+1); r.ID != want {
					t.Fatalf("List[%d] = %s, want %s", i, r.ID, want)
				}
			}

			// Overwrite updates in place.
			up := rec(2, "done")
			up.Result = json.RawMessage(`{"best_param":6}`)
			if err := s.Put(up); err != nil {
				t.Fatal(err)
			}
			got, ok, err := s.Get("job-000002")
			if err != nil || !ok || got.Status != "done" || string(got.Result) != `{"best_param":6}` {
				t.Fatalf("after overwrite: %+v ok=%v err=%v", got, ok, err)
			}
			if n, _ := s.Len(); n != 5 {
				t.Fatalf("Len after overwrite = %d, want 5", n)
			}

			// Cursor pagination walks every record exactly once, in order.
			var walked []string
			cursor := ""
			for pages := 0; ; pages++ {
				if pages > 5 {
					t.Fatal("pagination never terminated")
				}
				recs, next, err := s.List(cursor, 2)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range recs {
					walked = append(walked, r.ID)
				}
				if next == "" {
					break
				}
				cursor = next
			}
			if len(walked) != 5 {
				t.Fatalf("pagination walked %d records: %v", len(walked), walked)
			}
			for i := 1; i < len(walked); i++ {
				if walked[i] <= walked[i-1] {
					t.Fatalf("pagination out of order: %v", walked)
				}
			}

			// A cursor naming a deleted record still works: records after
			// it are returned.
			if err := s.Delete("job-000003"); err != nil {
				t.Fatal(err)
			}
			recs, _, err = s.List("job-000003", 0)
			if err != nil || len(recs) != 2 || recs[0].ID != "job-000004" {
				t.Fatalf("List after deleted cursor: %+v err=%v", recs, err)
			}
			// Deleting a missing record is a no-op.
			if err := s.Delete("job-009999"); err != nil {
				t.Fatal(err)
			}
			if n, _ := s.Len(); n != 4 {
				t.Fatalf("Len after delete = %d, want 4", n)
			}

			// Closed stores refuse everything.
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(rec(9, "queued")); !errors.Is(err, ErrClosed) {
				t.Fatalf("Put after Close = %v, want ErrClosed", err)
			}
			if _, _, err := s.List("", 0); !errors.Is(err, ErrClosed) {
				t.Fatalf("List after Close = %v, want ErrClosed", err)
			}
		})
	}
}

// Mutating a record after Put (or the slices returned by Get/List) must
// not alter stored state.
func TestStoreAliasing(t *testing.T) {
	for name, s := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			r := rec(1, "queued")
			if err := s.Put(r); err != nil {
				t.Fatal(err)
			}
			r.Spec[1] = 'X' // corrupt the caller's copy
			got, _, _ := s.Get(r.ID)
			if string(got.Spec) != `{"seed":1}` {
				t.Fatalf("stored spec aliased caller memory: %s", got.Spec)
			}
			got.Spec[1] = 'Y'
			again, _, _ := s.Get(r.ID)
			if string(again.Spec) != `{"seed":1}` {
				t.Fatalf("Get returned aliased memory: %s", again.Spec)
			}
		})
	}
}

// TestStoreConcurrency hammers a store from many goroutines; meaningful
// under -race.
func TestStoreConcurrency(t *testing.T) {
	for name, s := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for k := 0; k < 20; k++ {
						n := g*100 + k
						if err := s.Put(rec(n, "queued")); err != nil {
							t.Error(err)
							return
						}
						s.Get(rec(n, "").ID)
						s.List("", 5)
						if k%3 == 0 {
							s.Delete(rec(n, "").ID)
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

func TestFileStoreReopenRecovers(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 3; n++ {
		if err := s.Put(rec(n, "queued")); err != nil {
			t.Fatal(err)
		}
	}
	done := rec(2, "done")
	done.Result = json.RawMessage(`{"best_param":3}`)
	if err := s.Put(done); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("job-000003"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n, _ := re.Len(); n != 2 {
		t.Fatalf("reopened Len = %d, want 2", n)
	}
	got, ok, _ := re.Get("job-000002")
	if !ok || got.Status != "done" || string(got.Result) != `{"best_param":3}` {
		t.Fatalf("reopened record: %+v ok=%v", got, ok)
	}
	if _, ok, _ := re.Get("job-000003"); ok {
		t.Fatal("deleted record resurrected by reopen")
	}
}

// A huge limit (e.g. a client sending MaxInt) must page, not overflow
// into a slice-bounds panic.
func TestStoreHugeLimit(t *testing.T) {
	for name, s := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			for n := 1; n <= 3; n++ {
				if err := s.Put(rec(n, "queued")); err != nil {
					t.Fatal(err)
				}
			}
			recs, next, err := s.List("job-000001", int(^uint(0)>>1))
			if err != nil || len(recs) != 2 || next != "" {
				t.Fatalf("MaxInt limit after cursor: %d records, next %q, err %v", len(recs), next, err)
			}
		})
	}
}

// A crash mid-append leaves a torn final WAL line; Open must tolerate it
// and keep every complete entry.
func TestFileStoreTornFinalLine(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 2; n++ {
		if err := s.Put(rec(n, "running")); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate the crash: the process dies without Close, then the last
	// line is torn.
	wal := filepath.Join(dir, walName)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatalf("Open with torn WAL: %v", err)
	}
	if _, ok, _ := re.Get("job-000001"); !ok {
		t.Fatal("complete entry lost")
	}
	if _, ok, _ := re.Get("job-000002"); ok {
		t.Fatal("torn entry half-applied")
	}

	// Open must have trimmed the torn tail: appending new entries and
	// reopening again must work (a torn line left in place would become
	// fatal interior corruption once appended after).
	if err := re.Put(rec(3, "queued")); err != nil {
		t.Fatal(err)
	}
	// Skip Close (it compacts the WAL away); reopen over the live file.
	again, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after post-tear appends: %v", err)
	}
	defer again.Close()
	if _, ok, _ := again.Get("job-000003"); !ok {
		t.Fatal("post-tear append lost")
	}
	re.Close()
}

// A corrupt line with more data after it means real damage: Open must
// refuse rather than silently drop the tail.
func TestFileStoreCorruptInteriorLine(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(rec(1, "queued")); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, walName)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	data = append([]byte("{broken\n"), data...)
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a corrupt interior WAL line")
	}
}

// Compaction must fold the WAL into the snapshot without changing the
// observable record set.
func TestFileStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Overwrite a handful of records far more than compactMinWAL times:
	// the log crosses the compaction threshold while few records are
	// resident.
	for i := 0; i < compactMinWAL+50; i++ {
		if err := s.Put(rec(i%5, fmt.Sprintf("state-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	walLen := s.walLen
	s.mu.Unlock()
	if walLen >= compactMinWAL {
		t.Fatalf("WAL never compacted: %d entries", walLen)
	}
	if n, _ := s.Len(); n != 5 {
		t.Fatalf("Len after compaction = %d, want 5", n)
	}
	// The last write to job-000000 was the largest i with i%5 == 0.
	lastI := (compactMinWAL + 49) / 5 * 5
	got, ok, _ := s.Get("job-000000")
	if !ok || got.Status != fmt.Sprintf("state-%d", lastI) {
		t.Fatalf("latest overwrite lost by compaction: %+v", got)
	}
}

func ev(seq int) Event {
	return Event{Seq: seq, Data: json.RawMessage(fmt.Sprintf(`{"seq":%d,"type":"progress","done":%d}`, seq, seq))}
}

// The event-log half of the Store contract, against every implementation.
func TestEventLogContract(t *testing.T) {
	for name, s := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()

			// No log yet: empty scan, no error.
			evs, err := s.EventsSince("job-000001", 0)
			if err != nil || len(evs) != 0 {
				t.Fatalf("EventsSince on empty log: %v, %v", evs, err)
			}
			// Empty append is a no-op.
			if err := s.AppendEvents("job-000001", nil); err != nil {
				t.Fatal(err)
			}

			// Appends accumulate in order, across batches.
			if err := s.AppendEvents("job-000001", []Event{ev(1), ev(2)}); err != nil {
				t.Fatal(err)
			}
			if err := s.AppendEvents("job-000001", []Event{ev(3)}); err != nil {
				t.Fatal(err)
			}
			if err := s.AppendEvents("job-000002", []Event{ev(1)}); err != nil {
				t.Fatal(err)
			}
			evs, err = s.EventsSince("job-000001", 0)
			if err != nil || len(evs) != 3 {
				t.Fatalf("full scan: %d events, err %v", len(evs), err)
			}
			for i, e := range evs {
				if e.Seq != i+1 {
					t.Fatalf("event %d has seq %d", i, e.Seq)
				}
			}

			// Scan-since-seq returns strictly later events only.
			evs, _ = s.EventsSince("job-000001", 2)
			if len(evs) != 1 || evs[0].Seq != 3 {
				t.Fatalf("EventsSince(2) = %+v", evs)
			}
			if evs, _ = s.EventsSince("job-000001", 3); len(evs) != 0 {
				t.Fatalf("EventsSince(last) = %+v", evs)
			}

			// Logs are per job.
			if evs, _ = s.EventsSince("job-000002", 0); len(evs) != 1 {
				t.Fatalf("job-000002 log = %+v", evs)
			}

			// Delete of the record drops the event log with it — even when
			// no record was ever put (events precede the first Put during a
			// submission).
			if err := s.Delete("job-000001"); err != nil {
				t.Fatal(err)
			}
			if evs, _ = s.EventsSince("job-000001", 0); len(evs) != 0 {
				t.Fatalf("events survived Delete: %+v", evs)
			}
			if evs, _ = s.EventsSince("job-000002", 0); len(evs) != 1 {
				t.Fatal("Delete leaked into another job's log")
			}

			// Closed stores refuse event operations too.
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if err := s.AppendEvents("job-000002", []Event{ev(2)}); !errors.Is(err, ErrClosed) {
				t.Fatalf("AppendEvents after Close = %v, want ErrClosed", err)
			}
			if _, err := s.EventsSince("job-000002", 0); !errors.Is(err, ErrClosed) {
				t.Fatalf("EventsSince after Close = %v, want ErrClosed", err)
			}
		})
	}
}

// Mutating an event after AppendEvents (or one returned by EventsSince)
// must not alter stored state.
func TestEventLogAliasing(t *testing.T) {
	for name, s := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			in := []Event{ev(1)}
			if err := s.AppendEvents("job-000001", in); err != nil {
				t.Fatal(err)
			}
			in[0].Data[1] = 'X'
			out, err := s.EventsSince("job-000001", 0)
			if err != nil || len(out) != 1 {
				t.Fatalf("EventsSince: %v, %v", out, err)
			}
			if string(out[0].Data) != string(ev(1).Data) {
				t.Fatalf("stored event aliased caller memory: %s", out[0].Data)
			}
			out[0].Data[1] = 'Y'
			again, _ := s.EventsSince("job-000001", 0)
			if string(again[0].Data) != string(ev(1).Data) {
				t.Fatalf("EventsSince returned aliased memory: %s", again[0].Data)
			}
		})
	}
}

// Event appends survive a reopen: the WAL replays them onto the
// snapshot, torn-tail rules included.
func TestFileEventsReopenRecovers(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEvents("job-000001", []Event{ev(1), ev(2)}); err != nil {
		t.Fatal(err)
	}
	// A record write is the sync barrier after coalesced event appends.
	if err := s.Put(rec(1, "running")); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEvents("job-000001", []Event{ev(3)}); err != nil {
		t.Fatal(err)
	}
	// No Close: simulate the process dying with the WAL as-is.

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := re.EventsSince("job-000001", 0)
	if err != nil || len(evs) != 3 {
		t.Fatalf("reopened log = %d events, err %v", len(evs), err)
	}
	for i, e := range evs {
		if e.Seq != i+1 || string(e.Data) != string(ev(i+1).Data) {
			t.Fatalf("reopened event %d = %+v", i, e)
		}
	}
	re.Close()

	// And a clean Close compacts the events into the snapshot.
	again, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if evs, _ := again.EventsSince("job-000001", 0); len(evs) != 3 {
		t.Fatalf("post-compaction log = %d events", len(evs))
	}
}

// A crash mid-append can tear the final event line; Open must tolerate
// it, keep every complete entry, and keep the log appendable.
func TestFileEventsTornFinalLine(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The owning record must exist, or a reopen sweeps the job's log as
	// a submission-window orphan.
	if err := s.Put(rec(1, "running")); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEvents("job-000001", []Event{ev(1)}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEvents("job-000001", []Event{ev(2)}); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, walName)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatalf("Open with torn event tail: %v", err)
	}
	evs, _ := re.EventsSince("job-000001", 0)
	if len(evs) != 1 || evs[0].Seq != 1 {
		t.Fatalf("after torn tail: %+v", evs)
	}
	// The tail was trimmed: appending and reopening keeps working.
	if err := re.AppendEvents("job-000001", []Event{ev(2)}); err != nil {
		t.Fatal(err)
	}
	again, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after post-tear appends: %v", err)
	}
	defer again.Close()
	if evs, _ := again.EventsSince("job-000001", 0); len(evs) != 2 {
		t.Fatalf("post-tear append lost: %+v", evs)
	}
	re.Close()
}

// A corrupt line followed only by event entries is the coalesced-fsync
// crash signature: Open recovers by dropping the damaged suffix (event
// durability allows suffix loss) instead of refusing to start.
func TestFileEventsCorruptInteriorLine(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEvents("job-000001", []Event{ev(1)}); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, walName)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	data = append([]byte("{torn event\n"), data...)
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatalf("Open refused a corrupt all-events tail: %v", err)
	}
	defer re.Close()
	if evs, _ := re.EventsSince("job-000001", 0); len(evs) != 0 {
		t.Fatalf("events recovered from the dropped region: %+v", evs)
	}
}

// The snapshot carries a format version: current snapshots round-trip
// events, pre-event (v0) snapshots still load, and snapshots from a
// newer format are refused instead of silently dropping state.
func TestFileSnapshotVersioning(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(rec(1, "done")); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEvents("job-000001", []Event{ev(1), ev(2)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // compacts: events land in the snapshot
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, snapshotName)
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Version != snapshotVersion {
		t.Fatalf("snapshot version = %d, want %d", snap.Version, snapshotVersion)
	}
	if len(snap.Events["job-000001"]) != 2 {
		t.Fatalf("snapshot events = %+v", snap.Events)
	}

	// A legacy v0 snapshot (records only, no version field) still loads.
	legacy := []byte(`{"records":[{"id":"job-000009","status":"done","created":"2026-07-30T12:00:00Z"}]}`)
	if err := os.WriteFile(snapPath, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	os.Remove(filepath.Join(dir, walName))
	re, err := Open(dir)
	if err != nil {
		t.Fatalf("v0 snapshot refused: %v", err)
	}
	if _, ok, _ := re.Get("job-000009"); !ok {
		t.Fatal("v0 snapshot record lost")
	}
	re.Close()

	// A snapshot from a future format version is refused.
	future := []byte(`{"version":99,"records":[]}`)
	if err := os.WriteFile(snapPath, future, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a snapshot from the future")
	}
}

// Compaction must fold event logs into the snapshot without changing the
// observable event sequences.
func TestFileEventsSurviveCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AppendEvents("job-000001", []Event{ev(1), ev(2), ev(3)}); err != nil {
		t.Fatal(err)
	}
	// Overwrite a handful of records until the WAL crosses the
	// compaction threshold.
	for i := 0; i < 8*compactMinWAL; i++ {
		if err := s.Put(rec(i%5, fmt.Sprintf("state-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	walLen := s.walLen
	s.mu.Unlock()
	if walLen >= compactMinWAL {
		t.Fatalf("WAL never compacted: %d entries", walLen)
	}
	evs, err := s.EventsSince("job-000001", 0)
	if err != nil || len(evs) != 3 {
		t.Fatalf("events after compaction: %d, err %v", len(evs), err)
	}
	if evs, _ := s.EventsSince("job-000001", 1); len(evs) != 2 || evs[0].Seq != 2 {
		t.Fatalf("scan-since after compaction: %+v", evs)
	}
}

// TestEventLogConcurrency hammers appends, scans and deletes from many
// goroutines; meaningful under -race (it also exercises the coalescing
// sync timer against concurrent record writes). Each goroutine owns its
// job (the EventLog contract requires per-job monotone seqs), and all
// goroutines additionally contend on one shared job through an atomic
// sequence counter, so cross-goroutine append/scan interleavings on a
// single key are exercised too.
func TestEventLogConcurrency(t *testing.T) {
	for name, s := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			// The shared job mirrors the server's publish pattern: seq
			// assignment and append serialize under one mutex (the job
			// mutex in production), while different jobs append freely.
			const shared = "job-shared"
			var sharedMu sync.Mutex
			sharedSeq := 0
			appendShared := func() error {
				sharedMu.Lock()
				defer sharedMu.Unlock()
				sharedSeq++
				return s.AppendEvents(shared, []Event{ev(sharedSeq)})
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					id := fmt.Sprintf("job-%06d", g)
					for k := 1; k <= 25; k++ {
						if err := s.AppendEvents(id, []Event{ev(k)}); err != nil {
							t.Error(err)
							return
						}
						if err := appendShared(); err != nil {
							t.Error(err)
							return
						}
						if _, err := s.EventsSince(id, k/2); err != nil {
							t.Error(err)
							return
						}
						if _, err := s.EventsSince(shared, 0); err != nil {
							t.Error(err)
							return
						}
						if k%7 == 0 {
							if err := s.Put(rec(g, "running")); err != nil { // sync barrier interleaved
								t.Error(err)
								return
							}
						}
						if k%11 == 0 && g == 3 {
							if err := s.Delete(id); err != nil {
								t.Error(err)
								return
							}
						}
					}
					if g != 3 { // goroutine 3 deletes its own log mid-run
						if evs, err := s.EventsSince(id, 0); err != nil || len(evs) != 25 {
							t.Errorf("job %s: %d events after hammer (err %v), want 25", id, len(evs), err)
						}
					}
				}(g)
			}
			wg.Wait()
			// The shared job saw 8×25 contract-conforming appends; every
			// one must have landed.
			if evs, err := s.EventsSince(shared, 0); err != nil || len(evs) != 200 {
				t.Fatalf("shared job: %d events after hammer (err %v), want 200", len(evs), err)
			}
		})
	}
}

// Crash damage confined to the coalesced-event tail region — a garbled
// event entry with only event entries after it — recovers as a torn
// tail: records survive, the damaged suffix is dropped, and the store
// opens. The same damage followed by a record entry is fatal.
func TestFileEventsCorruptUnsyncedRegion(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(rec(1, "running")); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEvents("job-000001", []Event{ev(1)}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEvents("job-000001", []Event{ev(2)}); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, walName)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	// Garble the first event entry (simulating non-prefix writeback of
	// the unsynced suffix) while the second event entry stays intact.
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("unexpected WAL shape: %d lines", len(lines))
	}
	garbled := append([]byte(nil), lines[0]...)             // the record put
	garbled = append(garbled, []byte("\x00\x00{oops\n")...) // event entry 1, destroyed
	garbled = append(garbled, lines[2]...)                  // event entry 2, intact
	if err := os.WriteFile(wal, garbled, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatalf("Open refused a corrupt coalesced-event tail: %v", err)
	}
	if _, ok, _ := re.Get("job-000001"); !ok {
		t.Fatal("record lost")
	}
	// The damaged suffix (both event entries) is dropped — within the
	// event-durability contract.
	if evs, _ := re.EventsSince("job-000001", 0); len(evs) != 0 {
		t.Fatalf("events recovered from the dropped region: %+v", evs)
	}
	re.Close()

	// Same garbled line, but a RECORD entry after it: acknowledged
	// durable state would vanish, so Open must refuse.
	fatal := append([]byte(nil), lines[0]...)
	fatal = append(fatal, []byte("\x00\x00{oops\n")...)
	fatal = append(fatal, lines[0]...) // a put entry after the damage
	if err := os.WriteFile(wal, fatal, 0o644); err != nil {
		t.Fatal(err)
	}
	os.Remove(filepath.Join(dir, snapshotName))
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted corruption with a record entry after it")
	}
}

// A crash between the snapshot rename and the WAL truncation replays
// "ev" entries that the snapshot already contains; the replay must be
// idempotent (record puts overwrite, event appends must dedup by seq)
// or every event would double.
func TestFileEventsReplayIdempotentAfterCompactionCrash(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(rec(1, "running")); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEvents("job-000001", []Event{ev(1), ev(2)}); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, walName)
	preCompaction, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	// Compact (Close does), then put the pre-compaction WAL back —
	// exactly the state a crash after the snapshot rename but before
	// the truncation leaves behind.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal, preCompaction, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	evs, err := re.EventsSince("job-000001", 0)
	if err != nil || len(evs) != 2 {
		t.Fatalf("replay duplicated events: got %d (%+v), want 2", len(evs), evs)
	}
	for i, e := range evs {
		if e.Seq != i+1 {
			t.Fatalf("event %d has seq %d after replay", i, e.Seq)
		}
	}
	// And appends continue cleanly past the deduped replay.
	if err := re.AppendEvents("job-000001", []Event{ev(3)}); err != nil {
		t.Fatal(err)
	}
	if evs, _ := re.EventsSince("job-000001", 0); len(evs) != 3 {
		t.Fatalf("post-replay append: %+v", evs)
	}
}

// A crash in the submission window — queued event appended, record Put
// never acknowledged — leaves an event log with no owning record. Open
// must sweep it: the job was never visible, and a stale log would dedup
// away the first events of a re-issued ID.
func TestFileOrphanEventLogSweptOnOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(rec(1, "running")); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEvents("job-000001", []Event{ev(1)}); err != nil {
		t.Fatal(err)
	}
	// The orphan: events for a job whose record never landed.
	if err := s.AppendEvents("job-000002", []Event{ev(1), ev(2)}); err != nil {
		t.Fatal(err)
	}
	// No Close: the process "dies" before job-000002's record Put.

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if evs, _ := re.EventsSince("job-000002", 0); len(evs) != 0 {
		t.Fatalf("orphan log survived reopen: %+v", evs)
	}
	if evs, _ := re.EventsSince("job-000001", 0); len(evs) != 1 {
		t.Fatalf("owned log swept: %+v", evs)
	}
	// A re-issued ID starts a clean log: its seq-1 event must not be
	// deduped against the stale orphan.
	if err := re.Put(rec(2, "queued")); err != nil {
		t.Fatal(err)
	}
	if err := re.AppendEvents("job-000002", []Event{ev(1)}); err != nil {
		t.Fatal(err)
	}
	if evs, _ := re.EventsSince("job-000002", 0); len(evs) != 1 || evs[0].Seq != 1 {
		t.Fatalf("re-issued ID's first event lost: %+v", evs)
	}
	re.Close()
}

// The orphan sweep must be durable: after the swept ID is re-issued, a
// SECOND crash replays the original WAL — if the sweep left the stale
// "ev" entries in place, they would resurrect ahead of the new job's
// events and dedup its first events away.
func TestFileOrphanSweepSurvivesSecondCrash(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The orphan: two events, no record (crash in the submission window).
	orphanData := ev(1)
	orphanData.Data = json.RawMessage(`{"stale":"foreign"}`)
	if err := s.AppendEvents("job-000001", []Event{orphanData, ev(2)}); err != nil {
		t.Fatal(err)
	}
	// Crash #1 (no Close), restart: the sweep runs.
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The ID is re-issued: new submission appends its queued event and
	// then its record.
	if err := re.AppendEvents("job-000001", []Event{ev(1)}); err != nil {
		t.Fatal(err)
	}
	if err := re.Put(rec(1, "queued")); err != nil {
		t.Fatal(err)
	}
	// Crash #2 (no Close), restart: the full WAL — stale evs, sweep
	// delete, new evs, record — replays in order.
	again, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	evs, err := again.EventsSince("job-000001", 0)
	if err != nil || len(evs) != 1 {
		t.Fatalf("after second crash: %d events (err %v), want exactly the re-issued job's 1", len(evs), err)
	}
	if string(evs[0].Data) == `{"stale":"foreign"}` {
		t.Fatal("stale orphan event resurrected over the re-issued job's history")
	}
}

// Corruption that garbles BOTH an event line and a following record
// line must still refuse: the record's "put" key survives as a raw
// substring even when the line no longer parses, and silently dropping
// an fsynced record is the one unacceptable recovery.
func TestFileCorruptTailWithGarbledRecordRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEvents("job-000001", []Event{ev(1)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(rec(1, "done")); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, walName)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	damaged := []byte("\x00{garbled-event\n")
	// The record line is damaged too — unparseable, but its `"put":` key
	// survives in the raw bytes.
	garbledPut := append([]byte("\x00\x00"), lines[1]...)
	if err := os.WriteFile(wal, append(damaged, garbledPut...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open silently truncated a tail containing a garbled record entry")
	}
}

// Event payloads are fully opaque since the WAL grew CRC frames: the
// byte sequences the v1 damage heuristic keyed on (`"put":`/`"del":`,
// the old ErrEventData constraint) are accepted, survive a reopen, and
// damage near them is still classified correctly from frame structure.
func TestAppendEventsAcceptsOpaquePayload(t *testing.T) {
	payload := json.RawMessage(`{"put":1,"del":"x","msg":"say \"put\": loudly"}`)
	for name, s := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			if err := s.AppendEvents("job-000001", []Event{{Seq: 1, Data: payload}}); err != nil {
				t.Fatalf("AppendEvents with record-key payload bytes = %v", err)
			}
			evs, err := s.EventsSince("job-000001", 0)
			if err != nil || len(evs) != 1 || string(evs[0].Data) != string(payload) {
				t.Fatalf("payload did not round-trip: %+v, %v", evs, err)
			}
		})
	}

	// Durable round-trip across a reopen, and — the case the v1 heuristic
	// got wrong by construction — crash damage to the event line carrying
	// those bytes recovers as a torn event tail instead of refusing Open.
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(rec(1, "running")); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEvents("job-000001", []Event{{Seq: 1, Data: payload}}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEvents("job-000001", []Event{ev(2)}); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if evs, _ := re.EventsSince("job-000001", 0); len(evs) != 2 || string(evs[0].Data) != string(payload) {
		t.Fatalf("reopened log = %+v", evs)
	}
	// Capture the live WAL before Close compacts it away, then restore it
	// with the snapshot removed — the crash-before-compaction state.
	wal := filepath.Join(dir, walName)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	re.Close()
	os.Remove(filepath.Join(dir, snapshotName))

	// Flip one payload byte of the colliding event's line: its frame CRC
	// fails, the intact event entry after it is not a record entry, so the
	// suffix drops and the store opens — even though the damaged line still
	// contains a literal `"put":`.
	i := bytes.Index(data, []byte("loudly"))
	if i < 0 {
		t.Fatal("colliding event line not found in WAL")
	}
	data[i] = 'L'
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatal(err)
	}
	again, err := Open(dir)
	if err != nil {
		t.Fatalf("Open refused a damaged event frame carrying record-key bytes: %v", err)
	}
	defer again.Close()
	if _, ok, _ := again.Get("job-000001"); !ok {
		t.Fatal("record lost")
	}
	if evs, _ := again.EventsSince("job-000001", 0); len(evs) != 0 {
		t.Fatalf("events recovered from the dropped region: %+v", evs)
	}
}

// A store written by a pre-framing (v1) build — bare JSON WAL lines —
// opens and replays unchanged, and its first compaction rewrites the
// log framed.
func TestFileStoreReadsV1UnframedWAL(t *testing.T) {
	dir := t.TempDir()
	v1 := `{"put":{"id":"job-000001","status":"queued","created":"2026-07-30T12:00:01Z","spec":{"seed":1}}}
{"ev":{"id":"job-000001","events":[{"seq":1,"data":{"seq":1,"type":"status"}}]}}
{"put":{"id":"job-000002","status":"done","created":"2026-07-30T12:00:02Z"}}
{"del":"job-000002"}
`
	if err := os.WriteFile(filepath.Join(dir, walName), []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open refused a v1 unframed WAL: %v", err)
	}
	if _, ok, _ := s.Get("job-000001"); !ok {
		t.Fatal("v1 record lost")
	}
	if _, ok, _ := s.Get("job-000002"); ok {
		t.Fatal("v1 delete not applied")
	}
	if evs, _ := s.EventsSince("job-000001", 0); len(evs) != 1 {
		t.Fatalf("v1 events lost: %+v", evs)
	}
	// New appends are framed, mixing with the v1 prefix.
	if err := s.Put(rec(3, "queued")); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen of mixed v1+framed WAL: %v", err)
	}
	if _, ok, _ := re.Get("job-000003"); !ok {
		t.Fatal("framed append lost in mixed log")
	}
	if err := re.Close(); err != nil { // compacts
		t.Fatal(err)
	}
	// Post-compaction the log is empty and the snapshot carries the state.
	again, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if n, _ := again.Len(); n != 2 {
		t.Fatalf("post-compaction Len = %d, want 2", n)
	}
}

// The Updater contract: read-modify-write is atomic against concurrent
// updates, write=false leaves the store untouched, fn errors abort, and
// a missing record is reported through ok.
func TestStoreUpdateContract(t *testing.T) {
	for name, s := range implementations(t) {
		u, ok := s.(Updater)
		if !ok {
			t.Fatalf("%s does not implement Updater", name)
		}
		t.Run(name, func(t *testing.T) {
			defer s.Close()

			// Missing record: fn sees ok=false; write=false stores nothing.
			_, err := u.Update("job-000001", func(cur Record, ok bool) (Record, bool, error) {
				if ok {
					t.Error("fn saw a record in an empty store")
				}
				return Record{}, false, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if n, _ := s.Len(); n != 0 {
				t.Fatal("write=false stored a record")
			}

			// Missing record can be created.
			out, err := u.Update("job-000001", func(cur Record, ok bool) (Record, bool, error) {
				r := rec(1, "pending")
				return r, true, nil
			})
			if err != nil || out.Status != "pending" {
				t.Fatalf("creating Update: %+v, %v", out, err)
			}

			// fn errors abort without writing.
			boom := errors.New("boom")
			if _, err := u.Update("job-000001", func(cur Record, ok bool) (Record, bool, error) {
				cur.Status = "clobbered"
				return cur, true, boom
			}); !errors.Is(err, boom) {
				t.Fatalf("fn error not surfaced: %v", err)
			}
			if got, _, _ := s.Get("job-000001"); got.Status != "pending" {
				t.Fatalf("aborted update wrote: %+v", got)
			}

			// A mismatched ID is rejected.
			if _, err := u.Update("job-000001", func(cur Record, ok bool) (Record, bool, error) {
				cur.ID = "job-000099"
				return cur, true, nil
			}); err == nil {
				t.Fatal("Update accepted a record under a different ID")
			}

			// Concurrent increments: every read-modify-write must observe
			// the previous one — the compare-and-swap shard leases rely on.
			const goroutines, rounds = 8, 25
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := 0; k < rounds; k++ {
						_, err := u.Update("job-000001", func(cur Record, ok bool) (Record, bool, error) {
							if !ok {
								return cur, false, errors.New("record vanished")
							}
							var spec struct {
								Seed int `json:"seed"`
							}
							if err := json.Unmarshal(cur.Spec, &spec); err != nil {
								return cur, false, err
							}
							spec.Seed++
							data, err := json.Marshal(spec)
							if err != nil {
								return cur, false, err
							}
							cur.Spec = data
							return cur, true, nil
						})
						if err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			got, _, _ := s.Get("job-000001")
			var spec struct {
				Seed int `json:"seed"`
			}
			if err := json.Unmarshal(got.Spec, &spec); err != nil {
				t.Fatal(err)
			}
			if want := 1 + goroutines*rounds; spec.Seed != want {
				t.Fatalf("lost updates: counter = %d, want %d", spec.Seed, want)
			}
		})
	}
}

// Two Shared handles on one directory see each other's writes — the
// cross-process store contract, exercised in-process (the flock and
// refresh machinery is identical either way).
func TestSharedStoreCrossHandle(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Put(rec(1, "queued")); err != nil {
		t.Fatal(err)
	}
	got, ok, err := b.Get("job-000001")
	if err != nil || !ok || got.Status != "queued" {
		t.Fatalf("handle b missed handle a's write: %+v ok=%v err=%v", got, ok, err)
	}
	if err := b.AppendEvents("job-000001", []Event{ev(1)}); err != nil {
		t.Fatal(err)
	}
	if evs, _ := a.EventsSince("job-000001", 0); len(evs) != 1 {
		t.Fatalf("handle a missed handle b's events: %+v", evs)
	}
	if err := b.Delete("job-000001"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := a.Get("job-000001"); ok {
		t.Fatal("handle a missed handle b's delete")
	}

	// Cross-handle CAS: concurrent lease-style acquires through separate
	// handles, exactly one winner per round.
	if err := a.Put(rec(2, "pending")); err != nil {
		t.Fatal(err)
	}
	handles := []*Shared{a, b}
	var wins [2]int
	var wg sync.WaitGroup
	for h := range handles {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				_, err := handles[h].Update("job-000002", func(cur Record, ok bool) (Record, bool, error) {
					if !ok || cur.Status != "pending" {
						return cur, false, nil
					}
					cur.Status = fmt.Sprintf("leased-%d", h)
					return cur, true, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				// Release for the next round, but only the winner may.
				handles[h].Update("job-000002", func(cur Record, ok bool) (Record, bool, error) {
					if !ok || cur.Status != fmt.Sprintf("leased-%d", h) {
						return cur, false, nil
					}
					wins[h]++
					cur.Status = "pending"
					return cur, true, nil
				})
			}
		}(h)
	}
	wg.Wait()
	if wins[0]+wins[1] == 0 {
		t.Fatal("no CAS round completed")
	}
}

// A writer killed mid-append leaves an unterminated partial line in the
// shared log; other handles must not consume it, and the next critical
// section must trim it so later entries replay cleanly.
func TestSharedStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Put(rec(1, "queued")); err != nil {
		t.Fatal(err)
	}
	// Simulate a crashed writer's torn tail: raw bytes with no newline.
	wal, err := os.OpenFile(filepath.Join(dir, sharedWALName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Write([]byte(`=deadbeef 99 {"put":{"id":"job-9`)); err != nil {
		t.Fatal(err)
	}
	wal.Close()

	// A fresh handle reads complete entries only.
	b, err := OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, ok, _ := b.Get("job-000001"); !ok {
		t.Fatal("complete entry lost behind torn tail")
	}
	if n, _ := b.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1 (torn entry must not apply)", n)
	}
	// b trimmed the torn tail when it opened, so its next write lands on a
	// line boundary; both handles then agree.
	if err := b.Put(rec(2, "queued")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := a.Get("job-000002"); !ok {
		t.Fatal("write after torn tail lost")
	}
	if n, _ := a.Len(); n != 2 {
		t.Fatalf("Len after recovery = %d, want 2", n)
	}
	// And a third handle replaying from scratch sees the same state.
	c, err := OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if n, _ := c.Len(); n != 2 {
		t.Fatalf("fresh replay Len = %d, want 2", n)
	}
}

// walModes are the two ways to open the one WAL engine, each with the
// log file it writes.
var walModes = []struct {
	name string
	open func(dir string) (*File, error)
	wal  string
}{
	{"file", Open, walName},
	{"shared", OpenShared, sharedWALName},
}

func appendToFile(t *testing.T, path string, data []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
}

// A log that ends in a whole frame minus its newline ends in a torn
// write: replay must neither apply nor keep it. Kept, it would fuse with
// the next append into one damaged line, and the replay after that would
// drop the append — an fsynced Put — with it.
func TestWALFrameWithoutNewlineIsTorn(t *testing.T) {
	for _, mode := range walModes {
		t.Run(mode.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := mode.open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Put(rec(1, "running")); err != nil {
				t.Fatal(err)
			}
			torn := rec(2, "queued")
			payload, err := json.Marshal(walEntry{Put: &torn})
			if err != nil {
				t.Fatal(err)
			}
			frame := encodeFrame(payload)
			appendToFile(t, filepath.Join(dir, mode.wal), frame[:len(frame)-1])

			re, err := mode.open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if _, ok, _ := re.Get(torn.ID); ok {
				t.Fatal("replay applied a frame whose newline never landed")
			}
			if err := re.Put(rec(3, "queued")); err != nil {
				t.Fatal(err)
			}
			// No Close (a single-process Close compacts the log away):
			// reopen over the log as a crash would leave it.
			again, err := mode.open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer again.Close()
			if n, _ := again.Len(); n != 2 {
				t.Fatalf("second reopen Len = %d, want 2", n)
			}
			if _, ok, _ := again.Get(rec(3, "").ID); !ok {
				t.Fatal("Put made after the first reopen lost")
			}
		})
	}
}

// A damaged line with an intact record entry after it is real damage in
// a shared log too: OpenShared refuses it, as Open does, rather than
// skipping the line and serving a state without the record it held.
func TestSharedStoreCorruptInteriorLineRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 2; n++ {
		if err := s.Put(rec(n, "queued")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, sharedWALName)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte("job-000001"))
	if i < 0 {
		t.Fatal("first record not found in the shared log")
	}
	data[i] = 'J' // the first frame fails its CRC; job-000002's put follows it
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShared(dir); err == nil {
		t.Fatal("OpenShared accepted a damaged line with a record entry after it")
	}
}

// Shared logs written by builds before the one WAL engine can hold a
// write cut short mid-log: their shared store newline-terminated a
// crashed writer's partial line and appended after it. Replay skips such
// a short frame, wherever it was cut, even with a record after it, so
// those logs still open. A whole payload under a length that claims more
// is damage, not a short write, and is still refused.
func TestWALSkipsShortFrameBeforeRecord(t *testing.T) {
	putFrame := func(r Record) []byte {
		payload, err := json.Marshal(walEntry{Put: &r})
		if err != nil {
			t.Fatal(err)
		}
		return encodeFrame(payload)
	}
	torn := putFrame(rec(9, "queued"))
	for _, mode := range walModes {
		t.Run(mode.name, func(t *testing.T) {
			// A cut at 0 leaves nothing, and one at the newline leaves a
			// whole frame, which applies once terminated (as it did in
			// those builds); every cut in between leaves a short frame.
			for k := 1; k < len(torn)-1; k++ {
				dir := t.TempDir()
				log := putFrame(rec(1, "running"))
				log = append(log, torn[:k]...)
				log = append(log, '\n')
				log = append(log, putFrame(rec(2, "queued"))...)
				if err := os.WriteFile(filepath.Join(dir, mode.wal), log, 0o644); err != nil {
					t.Fatal(err)
				}
				s, err := mode.open(dir)
				if err != nil {
					t.Fatalf("cut at %d of %d frame bytes: %v", k, len(torn), err)
				}
				n, _ := s.Len()
				_, tornApplied, _ := s.Get(rec(9, "").ID)
				_, afterKept, _ := s.Get(rec(2, "").ID)
				s.Close()
				if n != 2 || tornApplied || !afterKept {
					t.Fatalf("cut at %d of %d frame bytes: Len %d, short frame applied %v, record after it kept %v",
						k, len(torn), n, tornApplied, afterKept)
				}
			}

			payload, err := json.Marshal(walEntry{Put: &Record{ID: "job-000009"}})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			log := fmt.Appendf(nil, "=%08x %d %s\n", crc32.Checksum(payload, crcTable), len(payload)+1, payload)
			log = append(log, putFrame(rec(2, "queued"))...)
			if err := os.WriteFile(filepath.Join(dir, mode.wal), log, 0o644); err != nil {
				t.Fatal(err)
			}
			if s, err := mode.open(dir); err == nil {
				s.Close()
				t.Fatal("a whole payload under an overlong length was skipped as a short write")
			}
		})
	}
}

// An event append on a shared store syncs as a single-process store's
// does: not inline, but at the next record write (of any process: fsync
// flushes the file whichever handle wrote it) or the coalescing timer.
func TestSharedStoreCoalescesEventSyncs(t *testing.T) {
	s, err := OpenShared(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Mark a coalescing timer as armed, so the append schedules none and
	// only a record write can clear dirty: the check reads the store's
	// state, not the clock.
	s.mu.Lock()
	s.syncArmed = true
	s.mu.Unlock()
	if err := s.AppendEvents("job-000001", []Event{ev(1)}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	dirty := s.dirty
	s.mu.Unlock()
	if !dirty {
		t.Fatal("an event append on a shared store synced inline")
	}
	if err := s.Put(rec(1, "running")); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	dirty = s.dirty
	s.mu.Unlock()
	if dirty {
		t.Fatal("a record write left an earlier event append unsynced")
	}
}

// Every WAL write feeds the durability metrics, however the store was
// opened: a Put through OpenShared counts an append and an fsync.
func TestSharedStoreFeedsWALMetrics(t *testing.T) {
	s, err := OpenShared(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appends, fsyncs := mWALAppends.Value(), mWALFsync.Count()
	if err := s.Put(rec(1, "queued")); err != nil {
		t.Fatal(err)
	}
	if got := mWALAppends.Value(); got <= appends {
		t.Errorf("cvcpd_wal_appends_total %d after a shared Put, was %d", got, appends)
	}
	if got := mWALFsync.Count(); got <= fsyncs {
		t.Errorf("cvcpd_wal_fsync_seconds_count %d after a shared Put, was %d", got, fsyncs)
	}
}
