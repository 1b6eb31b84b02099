package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// handleEvents streams a job's lifecycle over Server-Sent Events: a
// "state" event whenever the job's observable view changes (state
// transition or progress), plus comment heartbeats so proxies and
// clients can tell a quiet stream from a dead one. The stream ends when
// the job reaches a terminal state, the client goes away, or the server
// drains.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	// Poll fast enough to feel live but bounded either way; heartbeats
	// ride the same ticker.
	poll := s.cfg.Heartbeat / 4
	if poll > 250*time.Millisecond {
		poll = 250 * time.Millisecond
	}
	if poll < 50*time.Millisecond {
		poll = 50 * time.Millisecond
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()

	var last []byte
	lastBeat := time.Now()
	emit := func() (terminal bool) {
		v := j.view()
		buf, err := json.Marshal(v)
		if err != nil {
			return true
		}
		if string(buf) != string(last) {
			fmt.Fprintf(w, "event: state\ndata: %s\n\n", buf)
			fl.Flush()
			last = buf
			lastBeat = time.Now()
		} else if time.Since(lastBeat) >= s.cfg.Heartbeat {
			// SSE comment line: ignored by EventSource, keeps the
			// connection demonstrably alive. Count it before the write so
			// a client that sees the heartbeat also sees the counter.
			s.reg.Counter("server.sse_heartbeats").Inc()
			fmt.Fprint(w, ": heartbeat\n\n")
			fl.Flush()
			lastBeat = time.Now()
		}
		return v.State.terminal()
	}

	if emit() {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.baseCtx.Done():
			fmt.Fprint(w, "event: drain\ndata: {\"reason\":\"server draining\"}\n\n")
			fl.Flush()
			return
		case <-j.done:
			emit()
			return
		case <-ticker.C:
			if emit() {
				return
			}
		}
	}
}
