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
// pin its connection until the job next published.
// EventSource clients ignore comment lines by specification.
const sseHeartbeatInterval = 15 * time.Second

// events streams a job's progress as Server-Sent Events, read from the
// job's event history alone: the handler writes every event past its
// resume point, flushes, and waits for the job's next publish (or a
// heartbeat, or the client leaving) before it reads again, until the job
// is terminal and its history complete. However slowly the client reads,
// the stream carries every event in order, without gaps — late
// subscribers and subscribers arriving after a server restart see the
// full history — and ends with the terminal status. Each SSE message
// carries the event's sequence number as its id, the event type
// ("status", "progress" or "shard") and the Event JSON as data; progress
// events are monotonically increasing in done within a run (a
// crash-recovery re-queue restarts the grid, so its stream shows the
// pre-crash attempt's progress before the recovery run's).
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

	heartbeat := time.NewTicker(sseHeartbeatInterval)
	defer heartbeat.Stop()
	for {
		evs, wake := j.EventsSince(after)
		for _, ev := range evs {
			_ = rc.SetWriteDeadline(time.Now().Add(sseWriteTimeout))
			if err := writeEvent(w, ev); err != nil {
				return
			}
			after = ev.Seq
		}
		fl.Flush()
		if wake == nil {
			return // terminal: the history is complete
		}
		select {
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			_ = rc.SetWriteDeadline(time.Now().Add(sseWriteTimeout))
			if _, err := io.WriteString(w, ": ping\n\n"); err != nil {
				return
			}
		case <-wake:
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
