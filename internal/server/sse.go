package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// sseWriteTimeout is the per-event write deadline of an SSE stream. The
// server runs without a global WriteTimeout (it would kill every stream
// outliving it); instead the handler arms a fresh deadline before each
// write via http.NewResponseController, so a dead or stalled client
// tears the stream down within one timeout instead of pinning the
// connection forever.
const sseWriteTimeout = 30 * time.Second

// sseHeartbeatInterval paces comment-line keepalives (": ping") on
// event-quiet streams — a queued job, or a running one between
// coalesced progress events. Without them the write deadline never
// arms, and a silently dead client (NAT timeout, pulled cable) would
// pin its connection and subscription until the job next published.
// EventSource clients ignore comment lines by specification.
const sseHeartbeatInterval = 15 * time.Second

// events streams a job's progress as Server-Sent Events: the job's
// event history is replayed first (so late subscribers — and subscribers
// arriving after a server restart — see the full history), then live
// events stream until the job reaches a terminal status or the client
// disconnects. Each SSE message carries the event's sequence number as
// its id, the event type ("status" or "progress") and the Event JSON as
// data; progress events are monotonically increasing in done within a
// run (a crash-recovery re-queue restarts the grid, so its stream shows
// the pre-crash attempt's progress before the recovery run's).
//
// A reconnecting client sends the standard Last-Event-ID header (every
// EventSource does this automatically with the last id it saw); the
// stream then resumes after that sequence number instead of replaying
// the entire history.
func (a *api) events(w http.ResponseWriter, r *http.Request) {
	j, err := a.m.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, &apiError{status: http.StatusNotFound, Code: "not_found", Message: err.Error()})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, &apiError{status: http.StatusInternalServerError, Code: "internal",
			Message: "streaming unsupported by this connection"})
		return
	}

	after := 0
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			after = n
		}
	}

	replay, ch, cancel := j.SubscribeSince(after)
	defer cancel()

	rc := http.NewResponseController(w)
	// The server's read timeout covers the request, not the stream:
	// clear it so a long-lived stream is not torn down when the
	// connection's read deadline (armed while reading the request)
	// expires mid-stream. Write deadlines are re-armed per event — and
	// cleared on exit, because with no global WriteTimeout net/http
	// never resets them between requests, and a stale deadline would
	// fail the next request on this keep-alive connection. The read
	// deadline re-arms itself (ReadTimeout is set), so only the write
	// side needs the reset.
	_ = rc.SetReadDeadline(time.Time{})
	defer rc.SetWriteDeadline(time.Time{})

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	lastSeq := after
	write := func(ev Event) bool {
		_ = rc.SetWriteDeadline(time.Now().Add(sseWriteTimeout))
		if err := writeEvent(w, ev); err != nil {
			return false
		}
		lastSeq = ev.Seq
		return true
	}
	for _, ev := range replay {
		if !write(ev) {
			return
		}
	}
	fl.Flush()

	heartbeat := time.NewTicker(sseHeartbeatInterval)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			_ = rc.SetWriteDeadline(time.Now().Add(sseWriteTimeout))
			if _, err := io.WriteString(w, ": ping\n\n"); err != nil {
				return
			}
			fl.Flush()
		case ev, open := <-ch:
			if !open {
				// The job is terminal. A slow subscriber may have had
				// events dropped from its buffer — catch up from the
				// job's history so the terminal status event always lands.
				for _, missed := range j.EventsSince(lastSeq) {
					if !write(missed) {
						return
					}
				}
				fl.Flush()
				return
			}
			if ev.Seq <= lastSeq {
				continue // buffered before the replay covered it
			}
			if !write(ev) {
				return
			}
			fl.Flush()
		}
	}
}

func writeEvent(w io.Writer, ev Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return nil
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
	return err
}
