package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// walBytesPinned are the SHA-256s of the files TestWALBytesPinned's
// script leaves behind. They pin the on-disk format across commits: a
// change to framing, entry encoding, snapshot layout or the order in
// which a write reaches the log moves one of them. The single-process
// and shared logs of one script are the same bytes.
var walBytesPinned = map[string]string{
	walName:       "8faec0317d7dc045e7b3eeae46fdd1f4827576388974fa0ea5c0ae1c1ff8d857",
	snapshotName:  "711bf5a7e54b08cdf628bdd2a8352118bf02714e1f5b3e034463576420506934",
	sharedWALName: "8faec0317d7dc045e7b3eeae46fdd1f4827576388974fa0ea5c0ae1c1ff8d857",
}

// runWALScript drives one fixed sequence of writes through s: an event
// append before each job's first Put, four Puts, an event batch whose
// payload carries the record-entry key `"put":`, an Update and a Delete.
func runWALScript(t *testing.T, s interface {
	Store
	Updater
}) {
	t.Helper()
	for n := 1; n <= 3; n++ {
		if err := s.AppendEvents(rec(n, "").ID, []Event{ev(1)}); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(rec(n, "queued")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(rec(1, "running")); err != nil {
		t.Fatal(err)
	}
	look := Event{Seq: 2, Data: json.RawMessage(`{"put":{"id":"job-000009"},"del":"job-000001"}`)}
	if err := s.AppendEvents(rec(1, "").ID, []Event{look, ev(3)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(rec(2, "").ID, func(cur Record, ok bool) (Record, bool, error) {
		cur.Status = "done"
		cur.Result = json.RawMessage(`{"best_param":4}`)
		return cur, true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(rec(3, "").ID); err != nil {
		t.Fatal(err)
	}
}

func fileDigest(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestWALBytesPinned runs one script through Open and through
// OpenShared and compares the single-process log (before Close compacts
// it), the snapshot Close writes and the shared log with their pinned
// digests.
func TestWALBytesPinned(t *testing.T) {
	got := map[string]string{}

	dir := t.TempDir()
	f, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	runWALScript(t, f)
	got[walName] = fileDigest(t, filepath.Join(dir, walName))
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got[snapshotName] = fileDigest(t, filepath.Join(dir, snapshotName))

	sdir := t.TempDir()
	s, err := OpenShared(sdir)
	if err != nil {
		t.Fatal(err)
	}
	runWALScript(t, s)
	got[sharedWALName] = fileDigest(t, filepath.Join(sdir, sharedWALName))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	for name, want := range walBytesPinned {
		if got[name] != want {
			t.Errorf("%s: sha256 %s, pinned %s", name, got[name], want)
		}
	}
	if got[walName] != got[sharedWALName] {
		t.Errorf("single-process and shared logs differ: %s vs %s", got[walName], got[sharedWALName])
	}
}
