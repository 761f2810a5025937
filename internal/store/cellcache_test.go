package store

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestCellCacheRoundTrip(t *testing.T) {
	s := NewMemory()
	c := NewCellCache(s, "ds-000000001")
	if _, ok, err := c.GetCell("deadbeef"); err != nil || ok {
		t.Fatalf("empty cache: ok=%v err=%v", ok, err)
	}
	bits := math.Float64bits(0.625)
	if err := c.PutCell("deadbeef", bits); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.GetCell("deadbeef")
	if err != nil || !ok || got != bits {
		t.Fatalf("get: bits=%x ok=%v err=%v", got, ok, err)
	}
	// Cells of one owner are invisible to another.
	other := NewCellCache(s, "ds-000000002")
	if _, ok, _ := other.GetCell("deadbeef"); ok {
		t.Fatal("cell leaked across owners")
	}
}

func TestParseCellOwner(t *testing.T) {
	id := CellID("ds-000000007", "abc123")
	owner, ok := ParseCellOwner(id)
	if !ok || owner != "ds-000000007" {
		t.Fatalf("owner=%q ok=%v", owner, ok)
	}
	for _, bad := range []string{"job-000000001", "cell-", "cell-x", "ds-000000001"} {
		if _, ok := ParseCellOwner(bad); ok {
			t.Errorf("ParseCellOwner(%q) succeeded", bad)
		}
	}
}

// TestDeletePrefix sweeps an owner's cell records, as dataset deletion
// does: more of them than one List page holds, beside an owner whose ID
// extends the first one's (ds-1 and ds-10) and records of other kinds.
func TestDeletePrefix(t *testing.T) {
	s := NewMemory()
	owners := []*CellCache{NewCellCache(s, "ds-1"), NewCellCache(s, "ds-10")}
	const cells = 150
	for _, c := range owners {
		for i := 0; i < cells; i++ {
			if err := c.PutCell(fmt.Sprintf("%04x", i), 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, id := range []string{"ds-1", "ds-10", "job-000000001"} {
		if err := s.Put(Record{ID: id, Status: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range owners {
		n, err := DeletePrefix(s, CellID(c.Owner(), ""))
		if err != nil || n != cells {
			t.Fatalf("sweeping %s: removed %d err=%v, want %d", c.Owner(), n, err, cells)
		}
		if _, ok, _ := c.GetCell("0000"); ok {
			t.Fatalf("swept owner %s still has cells", c.Owner())
		}
		if got, _ := s.Len(); got != 3+(len(owners)-1-i)*cells {
			t.Fatalf("after sweeping %s: %d records left, want %d", c.Owner(), got, 3+(len(owners)-1-i)*cells)
		}
	}
	for _, id := range []string{"ds-1", "ds-10", "job-000000001"} {
		if _, ok, _ := s.Get(id); !ok {
			t.Fatalf("sweep removed record %s", id)
		}
	}
}

// TestFileOpenSweepsOrphanCells is the crash-recovery half of dataset
// eviction: cell records whose owning dataset record is gone are durably
// deleted at Open, mirroring the orphan event-log sweep.
func TestFileOpenSweepsOrphanCells(t *testing.T) {
	dir := t.TempDir()
	f, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Put(Record{ID: "ds-000000001", Status: "dataset"}); err != nil {
		t.Fatal(err)
	}
	owned := NewCellCache(f, "ds-000000001")
	if err := owned.PutCell("aaaa", 7); err != nil {
		t.Fatal(err)
	}
	// An orphan: cells of a dataset whose record was deleted without the
	// cell sweep (the crash window).
	orphan := NewCellCache(f, "ds-000000002")
	if err := orphan.PutCell("bbbb", 8); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	f2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := NewCellCache(f2, "ds-000000001").GetCell("aaaa"); !ok {
		t.Fatal("owned cell swept")
	}
	if _, ok, _ := NewCellCache(f2, "ds-000000002").GetCell("bbbb"); ok {
		t.Fatal("orphan cell survived Open")
	}
	if err := f2.Close(); err != nil {
		t.Fatal(err)
	}

	// The sweep is durable: a third Open (after the second one's WAL
	// delete entries) still shows no orphan.
	f3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer f3.Close()
	if _, ok, _ := NewCellCache(f3, "ds-000000002").GetCell("bbbb"); ok {
		t.Fatal("orphan cell resurrected")
	}
}

// TestFileOpenSweepSurvivesSnapshot ensures orphaned cells baked into a
// snapshot (not just the WAL) are swept too.
func TestFileOpenSweepSurvivesSnapshot(t *testing.T) {
	dir := t.TempDir()
	f, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewCellCache(f, "ds-000000009").PutCell("cccc", 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil { // Close compacts into the snapshot
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatal(err)
	}
	f2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if _, ok, _ := NewCellCache(f2, "ds-000000009").GetCell("cccc"); ok {
		t.Fatal("orphan cell from snapshot survived")
	}
}
