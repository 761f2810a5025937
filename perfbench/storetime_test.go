package main

import (
	"fmt"
	"sync"
	"testing"

	"cvcp/internal/dist"
	"cvcp/internal/store"
)

// The decorator must stand in for every store the server and the dist
// roles accept.
var (
	_ store.Store    = (*timedStore)(nil)
	_ store.Updater  = (*timedStore)(nil)
	_ store.EventLog = (*timedStore)(nil)
	_ dist.Store     = (*timedStore)(nil)
)

func TestTimedStoreCountsAndDelegates(t *testing.T) {
	tr := newTracer()
	stats := newStoreStats(tr)
	s := newTimedStore(store.NewMemory(), stats)

	if err := s.Put(store.Record{ID: "job-000000001", Status: "running"}); err != nil {
		t.Fatal(err)
	}
	if stats.quiet("job-000000001", 0) {
		t.Fatal("a running job's record counts as terminal")
	}
	stats.timing.Store(true)
	stats.op.Store(7)
	if err := s.Put(store.Record{ID: "job-000000001", Status: "done"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update("job-000000001", func(cur store.Record, ok bool) (store.Record, bool, error) {
		cur.Error = "x"
		return cur, ok, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEvents("job-000000001", []store.Event{{Seq: 1, Data: []byte(`{}`)}}); err != nil {
		t.Fatal(err)
	}
	stats.timing.Store(false)
	rec, ok, err := s.Get("job-000000001")
	if err != nil || !ok || rec.Error != "x" {
		t.Fatalf("Get = %+v, %v, %v: the update did not reach the wrapped store", rec, ok, err)
	}
	evs, err := s.EventsSince("job-000000001", 0)
	if err != nil || len(evs) != 1 {
		t.Fatalf("EventsSince = %v, %v", evs, err)
	}
	if !stats.quiet("job-000000001", 0) || stats.quiet("job-000000001", 1) {
		t.Fatal("quiet does not track the terminal Put and job deletions")
	}
	if err := s.Delete("job-000000001"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("cell-x"); err != nil {
		t.Fatal(err)
	}
	if !stats.quiet("job-000000001", 1) || stats.quiet("job-000000001", 2) {
		t.Fatal("only job records count as job deletions")
	}

	calls, msec := stats.snapshot()
	want := [numStoreOps]float64{opPut: 2, opGet: 1, opUpdate: 1, opAppendEvents: 1}
	if calls != want {
		t.Errorf("calls = %v, want %v", calls, want)
	}
	if msec[opGet] != 0 {
		t.Error("calls made with timing off were timed")
	}
	// Spans exist for the three calls made while timing, all under op 7.
	if len(tr.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(tr.spans))
	}
	for _, sp := range tr.spans {
		if sp.Op != 7 || sp.End < sp.Start {
			t.Errorf("span %+v", sp)
		}
	}
}

// TestTimedStoreConcurrent exercises the decorator from several
// goroutines while timing toggles; run it with -race.
func TestTimedStoreConcurrent(t *testing.T) {
	stats := newStoreStats(newTracer())
	s := newTimedStore(store.NewMemory(), stats)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := fmt.Sprintf("job-%d-%d", g, i)
				if err := s.Put(store.Record{ID: id, Status: "done"}); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := s.Get(id); err != nil {
					t.Error(err)
					return
				}
				stats.timing.Store(i%2 == 0)
			}
		}()
	}
	wg.Wait()
	calls, _ := stats.snapshot()
	if calls[opPut] != 200 || calls[opGet] != 200 {
		t.Fatalf("counted %v puts and %v gets, want 200 each", calls[opPut], calls[opGet])
	}
}
