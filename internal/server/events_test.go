package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// getSSE fetches a job's event stream, optionally resuming with a
// Last-Event-ID header, and parses it to completion (the handler ends
// the stream at the terminal event).
func getSSE(t *testing.T, ts *httptest.Server, id string, lastEventID int) []sseEvent {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID > 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprint(lastEventID))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	return readSSE(t, resp.Body)
}

func sameSSE(a, b sseEvent) bool {
	return a.id == b.id && a.event == b.event && a.raw == b.raw
}

// The acceptance criterion of event persistence: with a file store, the
// event stream of a finished job after a kill -9 + restart is identical
// — sequence numbers, types and payloads — to the stream served before
// the crash.
func TestSSEReplayIdenticalAcrossRestart(t *testing.T) {
	ds, _ := testDataset(t, 30)
	dir := t.TempDir()

	s1 := openFileStore(t, dir)
	m1 := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 2, Store: s1})
	ts1 := httptest.NewServer(NewHandler(m1))
	defer ts1.Close()

	j, err := m1.Submit(quickSpec(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, j); s != StatusDone {
		t.Fatalf("job finished as %s", s)
	}
	before := getSSE(t, ts1, j.ID(), 0)
	if len(before) < 3 {
		t.Fatalf("pre-restart stream has only %d events", len(before))
	}

	// "kill -9": the first store is abandoned without Close, and a fresh
	// manager opens the same directory. A killed process writes nothing
	// afterwards, so the kill comes only once m1 is quiescent: the job
	// turns terminal in memory before the executor writes its terminal
	// record, and a restart that read the running record would re-queue
	// the job and append a second run's events to the stream. Shutdown
	// waits for the executor and writes nothing of its own.
	if err := m1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	s2 := openFileStore(t, dir)
	defer s2.Close()
	m2 := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 2, Store: s2})
	defer m2.Shutdown(context.Background())
	ts2 := httptest.NewServer(NewHandler(m2))
	defer ts2.Close()

	after := getSSE(t, ts2, j.ID(), 0)
	if len(after) != len(before) {
		t.Fatalf("replayed stream has %d events, pre-restart had %d:\n%+v\nvs\n%+v",
			len(after), len(before), after, before)
	}
	for i := range before {
		if !sameSSE(before[i], after[i]) {
			t.Fatalf("event %d differs across restart:\npre:  %+v\npost: %+v", i, before[i], after[i])
		}
	}

	// And Last-Event-ID resume works identically on the replayed log.
	mid := before[len(before)/2].id
	resumed := getSSE(t, ts2, j.ID(), mid)
	want := before[len(before)/2+1:]
	if len(resumed) != len(want) {
		t.Fatalf("resumed stream has %d events, want %d", len(resumed), len(want))
	}
	for i := range want {
		if !sameSSE(resumed[i], want[i]) {
			t.Fatalf("resumed event %d = %+v, want %+v", i, resumed[i], want[i])
		}
	}

}

// A reconnecting client sending Last-Event-ID receives only events with
// a later sequence number — on a finished job and on a live one.
func TestSSELastEventIDResume(t *testing.T) {
	ds, _ := testDataset(t, 30)
	ts, m := newTestServer(t, Config{MaxRunningJobs: 1, WorkerBudget: 2})

	j, err := m.Submit(quickSpec(), ds)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)

	full := getSSE(t, ts, j.ID(), 0)
	if len(full) < 3 {
		t.Fatalf("only %d events", len(full))
	}
	for cut := 0; cut < len(full); cut++ {
		resumed := getSSE(t, ts, j.ID(), full[cut].id)
		if len(resumed) != len(full)-cut-1 {
			t.Fatalf("resume after seq %d: %d events, want %d", full[cut].id, len(resumed), len(full)-cut-1)
		}
		for i, ev := range resumed {
			if !sameSSE(ev, full[cut+1+i]) {
				t.Fatalf("resume after seq %d, event %d = %+v, want %+v", full[cut].id, i, ev, full[cut+1+i])
			}
		}
	}
	// A Last-Event-ID the job never issued (past its final seq) is
	// unknown: the full history replays — it must never suppress the
	// stream below a bogus cutoff.
	if resumed := getSSE(t, ts, j.ID(), full[len(full)-1].id+10); len(resumed) != len(full) {
		t.Fatalf("resume past the end replayed %d events, want the full %d", len(resumed), len(full))
	}
	// A malformed Last-Event-ID is ignored: the full history replays.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+j.ID()+"/events", nil)
	req.Header.Set("Last-Event-ID", "not-a-number")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	got := readSSE(t, resp.Body)
	resp.Body.Close()
	if len(got) != len(full) {
		t.Fatalf("malformed Last-Event-ID: %d events, want the full %d", len(got), len(full))
	}
}

// Resuming against a RUNNING job must not re-receive the history before
// Last-Event-ID.
func TestSSELastEventIDResumeLive(t *testing.T) {
	ds, _ := testDataset(t, 30)
	alg := newBlockingAlg()
	RegisterAlgorithm("block-sse-resume", alg, []int{1})
	ts, m := newTestServer(t, Config{MaxRunningJobs: 1, WorkerBudget: 1})

	spec := quickSpec()
	spec.Algorithm = "block-sse-resume"
	spec.Params = []int{1}
	j, err := m.Submit(spec, ds)
	if err != nil {
		t.Fatal(err)
	}
	<-alg.started // running: seq 1 (queued) and seq 2 (running) exist

	// Reconnect claiming we already saw seq 2, then let the job finish.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+j.ID()+"/events", nil)
	req.Header.Set("Last-Event-ID", "2")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	close(alg.release)

	events := readSSE(t, resp.Body) // ends at the terminal event
	if len(events) == 0 {
		t.Fatal("no events after resume")
	}
	prev := 2
	for _, ev := range events {
		if ev.id <= prev {
			t.Fatalf("resumed stream replayed seq %d (after %d): %+v", ev.id, prev, events)
		}
		prev = ev.id
	}
	if last := events[len(events)-1]; last.event != "status" || last.data.Status != StatusDone {
		t.Fatalf("last resumed event = %+v, want done status", last)
	}
}

// A job re-queued by a restart appends to its existing event log: the
// post-recovery stream starts with the pre-crash events and continues
// with fresh sequence numbers, never restarting from 1.
func TestRestartRequeueContinuesEventSeq(t *testing.T) {
	ds, _ := testDataset(t, 30)
	dir := t.TempDir()
	alg := newGatedAlg()
	RegisterAlgorithm("gated-sse-requeue", alg, []int{3, 6})

	s1 := openFileStore(t, dir)
	m1 := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 2, Store: s1})

	spec := Spec{Algorithm: "gated-sse-requeue", Params: []int{3, 6}, NFolds: 2, Seed: 7, LabelFraction: 0.5}
	j, err := m1.Submit(spec, ds)
	if err != nil {
		t.Fatal(err)
	}
	<-alg.started // running; queued(1) + running(2) are on disk

	// "kill -9", restart over the same directory.
	s2 := openFileStore(t, dir)
	defer s2.Close()
	m2 := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 2, Store: s2})
	ts2 := httptest.NewServer(NewHandler(m2))
	defer ts2.Close()

	rj, err := m2.Get(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, rj); s != StatusDone {
		t.Fatalf("re-queued job finished as %s (%s)", s, rj.View().Error)
	}
	events := getSSE(t, ts2, j.ID(), 0)
	if len(events) < 5 {
		t.Fatalf("only %d events after requeue", len(events))
	}
	if events[0].id != 1 || events[0].data.Status != StatusQueued {
		t.Fatalf("stream does not start with the original queued event: %+v", events[0])
	}
	if events[1].id != 2 || events[1].data.Status != StatusRunning {
		t.Fatalf("second event is not the pre-crash running event: %+v", events[1])
	}
	queued, prev := 0, 0
	for _, ev := range events {
		if ev.id <= prev {
			t.Fatalf("sequence restarted or repeated: %d after %d in %+v", ev.id, prev, events)
		}
		prev = ev.id
		if ev.event == "status" && ev.data.Status == StatusQueued {
			queued++
		}
	}
	if queued != 2 {
		t.Fatalf("saw %d queued events, want 2 (original + re-queue)", queued)
	}
	if last := events[len(events)-1]; last.data.Status != StatusDone {
		t.Fatalf("stream does not end terminal: %+v", last)
	}

	// Teardown: open the gate so the abandoned first manager can drain.
	m2.Shutdown(context.Background())
	close(alg.release)
	waitTerminal(t, j)
	m1.Shutdown(context.Background())
}

// testEventLog is an in-memory jobEventLog for unit tests that build
// jobs without a manager.
type testEventLog struct {
	mu  sync.Mutex
	evs map[string][]Event
}

func newTestEventLog() *testEventLog { return &testEventLog{evs: map[string][]Event{}} }

func (l *testEventLog) appendEvents(jobID string, evs []Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.evs[jobID] = append(l.evs[jobID], evs...)
}

// Consecutive progress events are coalesced on large grids — the event
// log stays near maxProgressEvents entries however many cells the grid
// has — while the counters, the final progress event and full replay
// through the log all stay exact.
func TestProgressCoalescing(t *testing.T) {
	ds, _ := testDataset(t, 30)
	log := newTestEventLog()
	j := newJob("job-000000001", "", quickSpec(), ds, nil, context.Background(), log, nil, 0, false)
	defer j.cancel()
	if !j.claimRun() {
		t.Fatal("claimRun failed")
	}

	const total = 10000
	for done := 1; done <= total; done++ {
		j.onProgress(done, total)
	}

	history, _ := j.EventsSince(0)
	progress := 0
	lastDone := 0
	for _, ev := range history {
		if ev.Type == "progress" {
			progress++
			if ev.Done <= lastDone {
				t.Fatalf("progress not monotone: %d after %d", ev.Done, lastDone)
			}
			lastDone = ev.Done
		}
	}
	if lastDone != total {
		t.Fatalf("final published progress = %d, want %d", lastDone, total)
	}
	// Tight loop: only the delta rule fires (plus at most a few interval
	// publishes). Far fewer than one event per cell, and within a small
	// factor of the target.
	if progress > maxProgressEvents+16 {
		t.Fatalf("%d progress events published for %d cells, want ≈%d", progress, total, maxProgressEvents)
	}
	if progress < maxProgressEvents/2 {
		t.Fatalf("only %d progress events for %d cells — coalescing dropped too much", progress, total)
	}
	if v := j.View(); v.Done != total || v.Total != total {
		t.Fatalf("view counters = %d/%d, want exact", v.Done, v.Total)
	}

	if got := len(history); got != progress+2 { // queued + running + progress
		t.Fatalf("full replay = %d events, want %d", got, progress+2)
	}
	seq := history[len(history)-1].Seq
	if got, _ := j.EventsSince(seq - 5); len(got) != 5 {
		t.Fatalf("tail resume = %d events, want 5", len(got))
	}
}

// The small-grid behavior is unchanged by coalescing: every cell
// publishes (the stride is 1) so existing consumers see full granularity.
func TestProgressSmallGridUncoalesced(t *testing.T) {
	ds, _ := testDataset(t, 30)
	log := newTestEventLog()
	j := newJob("job-000000001", "", quickSpec(), ds, nil, context.Background(), log, nil, 0, false)
	defer j.cancel()
	if !j.claimRun() {
		t.Fatal("claimRun failed")
	}
	for done := 1; done <= 20; done++ {
		j.onProgress(done, 20)
	}
	progress := 0
	evs, _ := j.EventsSince(0)
	for _, ev := range evs {
		if ev.Type == "progress" {
			progress++
		}
	}
	if progress != 20 {
		t.Fatalf("%d progress events for a 20-cell grid, want all 20", progress)
	}
}

// TestSSEConcurrentSubscribers hammers concurrent publishes, durable
// appends, subscriptions and resumes; meaningful under -race. Every
// stream — whatever its entry point — must be strictly increasing in seq
// and end terminal.
func TestSSEConcurrentSubscribers(t *testing.T) {
	ds, _ := testDataset(t, 24)
	ts, m := newTestServer(t, Config{MaxRunningJobs: 2, WorkerBudget: 4, QueueDepth: 32, RetainFinished: 64})

	const jobs = 4
	var wg sync.WaitGroup
	for g := 0; g < jobs; g++ {
		spec := quickSpec()
		spec.Seed = int64(g + 1)
		j, err := m.Submit(spec, ds)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func(id string, after int) {
				defer wg.Done()
				// Resume only from a sequence number the job has issued:
				// an unissued Last-Event-ID is ignored and the stream
				// replays from seq 1.
				for evs, _ := j.EventsSince(after - 1); len(evs) == 0; evs, _ = j.EventsSince(after - 1) {
					time.Sleep(time.Millisecond)
				}
				events := getSSE(t, ts, id, after)
				prev := after
				for _, ev := range events {
					if ev.id <= prev {
						t.Errorf("job %s: seq %d after %d", id, ev.id, prev)
						return
					}
					prev = ev.id
				}
				// An empty stream is legal when the job finished at or
				// before the resume point (e.g. cancelled at seq 2,
				// resumed with after=2); otherwise it must end terminal.
				if len(events) > 0 && events[len(events)-1].event != "status" {
					t.Errorf("job %s: stream (after=%d) did not end with a status event", id, after)
				}
			}(j.ID(), r) // after = 0, 1, 2
		}
		if g%2 == 1 {
			go m.Cancel(j.ID())
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("subscribers never finished")
	}
}

// stalledWriter is an http.ResponseWriter whose writes block until
// release is closed, like a client that stops reading; blocked closes at
// the first write.
type stalledWriter struct {
	header  http.Header
	buf     bytes.Buffer
	once    sync.Once
	blocked chan struct{}
	release chan struct{}
}

func (w *stalledWriter) Header() http.Header { return w.header }
func (w *stalledWriter) WriteHeader(int)     {}
func (w *stalledWriter) Flush()              {}

func (w *stalledWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.blocked) })
	<-w.release
	return w.buf.Write(p)
}

// A stream whose client stops reading while the job publishes carries
// every event once it reads again: the stream is read from the job's
// history, so nothing is lost however far behind the client falls.
func TestSSEStalledSubscriberGetsEveryEvent(t *testing.T) {
	ds, _ := testDataset(t, 30)
	alg := newBlockingAlg()
	RegisterAlgorithm("block-sse-stall", alg, []int{1})
	m := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 1})
	defer m.Shutdown(context.Background())

	spec := quickSpec()
	spec.Algorithm = "block-sse-stall"
	spec.Params = []int{1}
	j, err := m.Submit(spec, ds)
	if err != nil {
		t.Fatal(err)
	}
	<-alg.started // running

	w := &stalledWriter{header: http.Header{}, blocked: make(chan struct{}), release: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+j.ID()+"/events", nil)
		NewHandler(m).ServeHTTP(w, req)
	}()
	<-w.blocked
	const stalled, after = 300, 10
	for i := 0; i < stalled; i++ {
		j.onShard(i, stalled+after, "done", "w1")
	}
	close(w.release)
	for i := stalled; i < stalled+after; i++ {
		j.onShard(i, stalled+after, "done", "w1")
	}
	close(alg.release)
	select {
	case <-served:
	case <-time.After(30 * time.Second):
		t.Fatal("stream never ended")
	}

	history, _ := j.EventsSince(0)
	got := readSSE(t, &w.buf)
	if len(got) != len(history) {
		t.Fatalf("stream carried %d of the job's %d events", len(got), len(history))
	}
	for i, ev := range got {
		if ev.id != history[i].Seq {
			t.Fatalf("stream event %d has id %d, want seq %d", i, ev.id, history[i].Seq)
		}
	}
	if last := got[len(got)-1]; last.data.Status != StatusDone {
		t.Fatalf("stream ends with %+v, want the done status", last)
	}
}

// Jobs resurrected from a store written before event persistence existed
// (no event log) still stream a condensed lifecycle history.
func TestLegacyRecordCondensedHistory(t *testing.T) {
	ds, _ := testDataset(t, 30)
	dir := t.TempDir()

	s1 := openFileStore(t, dir)
	m1 := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 2, Store: s1})
	j, err := m1.Submit(quickSpec(), ds)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	if err := m1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Strip the event log from the snapshot, simulating a pre-event
	// store directory.
	s2 := openFileStore(t, dir)
	if err := s2.Delete(j.ID()); err != nil { // drops record + events
		t.Fatal(err)
	}
	rec := j.record()
	if err := s2.Put(rec); err != nil { // record back, log gone
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	s3 := openFileStore(t, dir)
	defer s3.Close()
	m3 := NewManager(Config{MaxRunningJobs: 1, WorkerBudget: 2, Store: s3})
	defer m3.Shutdown(context.Background())
	ts := httptest.NewServer(NewHandler(m3))
	defer ts.Close()

	events := getSSE(t, ts, j.ID(), 0)
	if len(events) != 2 {
		t.Fatalf("condensed history = %+v, want queued + terminal", events)
	}
	if events[0].data.Status != StatusQueued || events[1].data.Status != StatusDone {
		t.Fatalf("condensed history = %+v", events)
	}
}

// A job evicted mid-stream loses its store log; replays must still
// serve the job's whole history from memory — first event through the
// newest, terminal status included — rather than an empty stream.
func TestEvictedJobServesTailWhenLogGone(t *testing.T) {
	ds, _ := testDataset(t, 30)
	log := newTestEventLog()
	j := newJob("job-000000001", "", quickSpec(), ds, nil, context.Background(), log, nil, 0, false)
	defer j.cancel()
	if !j.claimRun() {
		t.Fatal("claimRun failed")
	}
	const total = 2000
	for done := 1; done <= total; done++ {
		j.onProgress(done, total)
	}
	before, _ := j.EventsSince(0)
	if before[0].Seq != 1 {
		t.Fatalf("full history starts at seq %d, want 1", before[0].Seq)
	}

	// Eviction: the store drops the job's event log.
	log.mu.Lock()
	log.evs = map[string][]Event{}
	log.mu.Unlock()

	history, _ := j.EventsSince(0)
	if len(history) != len(before) {
		t.Fatalf("history after the log vanished has %d events, want %d", len(history), len(before))
	}
	if history[0].Seq != 1 {
		t.Fatalf("history after the log vanished starts at seq %d, want 1", history[0].Seq)
	}
	j.mu.Lock()
	lastSeq := j.seq
	j.mu.Unlock()
	if history[len(history)-1].Seq != lastSeq {
		t.Fatalf("history missing the newest event: last %d, want %d", history[len(history)-1].Seq, lastSeq)
	}
}

// A restart resuming a job from its durable log must leave a sequence
// gap before publishing: a crash may have lost an fsync-coalesced
// suffix that live subscribers already received, and reusing those
// numbers for different events would let a Last-Event-ID resume
// silently skip the replacements.
func TestRequeueSeqGapAvoidsLostSuffixCollision(t *testing.T) {
	ds, _ := testDataset(t, 30)
	log := newTestEventLog()
	prior := []Event{
		{Seq: 1, Type: "status", Status: StatusQueued},
		{Seq: 2, Type: "status", Status: StatusRunning},
	}
	j := newJob("job-000000001", "", quickSpec(), ds, nil, context.Background(), log, prior, 0, true)
	defer j.cancel()
	evs, _ := j.EventsSince(2)
	if len(evs) != 1 {
		t.Fatalf("replay after seed = %+v, want only the fresh queued event", evs)
	}
	if want := 2 + seqRequeueGap + 1; evs[0].Seq != want {
		t.Fatalf("post-requeue queued event has seq %d, want %d (gap %d past the durable log)",
			evs[0].Seq, want, seqRequeueGap)
	}
	// Any possibly-lost pre-crash seq (durable last .. last+publishable)
	// resumes without skipping the fresh events.
	for _, after := range []int{2, 5, 2 + 2*maxProgressEvents} {
		if got, _ := j.EventsSince(after); len(got) != 1 || got[0].Seq != 2+seqRequeueGap+1 {
			t.Fatalf("resume after %d = %+v; the fresh queued event must not be skipped", after, got)
		}
	}
}

// When the durable log lags the job (append failures are swallowed; a
// disk-full store stalls the log while the job keeps publishing), a
// catch-up from seq 0 must still reach the newest events — the
// terminal status above all — since it reads the job's own history,
// not the stale log.
func TestCatchUpGraftsTailOntoStaleLog(t *testing.T) {
	ds, _ := testDataset(t, 30)
	log := newTestEventLog()
	const id = "job-000000001"
	var prior []Event
	for seq := 1; seq <= 300; seq++ {
		prior = append(prior, Event{Seq: seq, Type: "progress", Done: seq, Total: 300})
	}
	// The durable log holds only a stale prefix — appends "failed" for
	// everything after seq 200, the fresh queued event included.
	log.mu.Lock()
	log.evs[id] = append([]Event(nil), prior[:200]...)
	log.mu.Unlock()
	j := newJob(id, "", quickSpec(), ds, nil, context.Background(), log, prior, 0, true)
	defer j.cancel()
	log.mu.Lock()
	log.evs[id] = log.evs[id][:200]
	log.mu.Unlock()

	history, _ := j.EventsSince(0)
	if len(history) != 301 { // seqs 1..300 plus the fresh queued event
		t.Fatalf("history has %d events, want 301", len(history))
	}
	for i := 1; i < len(history); i++ {
		if history[i].Seq <= history[i-1].Seq {
			t.Fatalf("history not monotone: %d after %d", history[i].Seq, history[i-1].Seq)
		}
	}
	last := history[len(history)-1]
	if want := 300 + seqRequeueGap + 1; last.Seq != want || last.Status != StatusQueued {
		t.Fatalf("newest event lost by the stale-log catch-up: last = %+v, want queued seq %d", last, want)
	}
}
