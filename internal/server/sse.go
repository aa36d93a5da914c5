package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// sseHeartbeat is the keep-alive comment cadence on the events stream.
const sseHeartbeat = 15 * time.Second

// handleDesignEvents streams a job's per-generation journal records as
// Server-Sent Events:
//
//	event: generation          one per GA generation (data: GenerationRecord)
//	event: state               terminal notification (data: {"id","state"}), then EOF
//	: heartbeat                comment keep-alives while the GA computes
//
// `?from=N` replays from generation N (default: everything still in the
// in-memory ring). Reconnecting EventSource clients are resumed
// automatically: each event's SSE id is its generation, so a standard
// `Last-Event-ID: N` header replays from generation N+1 — the explicit
// `?from=` wins when both are present. Jobs running on this replica
// stream live from the progress ring; jobs owned by peer replicas are
// followed by incrementally re-reading their shared on-disk journal.
func (s *Server) handleDesignEvents(w http.ResponseWriter, r *http.Request) {
	j, rec, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	from := 0
	if raw := r.URL.Query().Get("from"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, "bad from %q: want a non-negative integer", raw)
			return
		}
		from = v
	} else if raw := r.Header.Get("Last-Event-ID"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, "bad Last-Event-ID %q: want a non-negative integer", raw)
			return
		}
		from = v + 1 // the client already has generation v
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "response writer does not support streaming")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	sendRecord := func(rec obs.GenerationRecord) {
		data, err := json.Marshal(rec)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "id: %d\nevent: generation\ndata: %s\n\n", rec.Generation, data)
		flusher.Flush()
	}
	sendState := func(id string, state JobState) {
		fmt.Fprintf(w, "event: state\ndata: {\"id\":%q,\"state\":%q}\n\n", id, state)
		flusher.Flush()
	}

	beat := func() {
		fmt.Fprint(w, ": heartbeat\n\n")
		flusher.Flush()
	}

	if j != nil {
		s.streamLocal(r, j, from, sendRecord, sendState, beat)
		return
	}
	s.streamRemote(r, rec.ID, from, sendRecord, sendState, beat)
}

// streamLocal follows a job running (or finished) on this replica via
// its in-memory ring and subscriber channel.
func (s *Server) streamLocal(r *http.Request, j *job, from int,
	sendRecord func(obs.GenerationRecord), sendState func(string, JobState), beat func()) {
	// Subscribe before replaying the ring so no record falls between
	// replay and the live stream; duplicates are filtered by generation.
	live, unsub := j.subscribe(s.cfg.ProgressBuffer)
	defer unsub()

	lastSent := from - 1
	replay, _ := j.progressTail(0)
	for _, rec := range replay {
		if rec.Generation > lastSent {
			sendRecord(rec)
			lastSent = rec.Generation
		}
	}

	ticker := time.NewTicker(sseHeartbeat)
	defer ticker.Stop()
	finish := func() {
		// Flush anything that raced the done signal, then report state.
		tail, _ := j.progressTail(0)
		for _, rec := range tail {
			if rec.Generation > lastSent {
				sendRecord(rec)
				lastSent = rec.Generation
			}
		}
		j.mu.Lock()
		state := j.state
		j.mu.Unlock()
		sendState(j.id, state)
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case rec := <-live:
			if rec.Generation > lastSent {
				sendRecord(rec)
				lastSent = rec.Generation
			}
		case <-j.done:
			finish()
			return
		case <-ticker.C:
			beat()
		}
	}
}

// streamRemote follows a job this replica is not running — pending, or
// owned by a peer — by re-reading its shared journal file until the
// store record turns terminal. The moment this replica claims the job
// the stream goes live: the journal may not exist (no JournalDir), and
// polling a file for what the progress ring has is a poll interval late.
func (s *Server) streamRemote(r *http.Request, id string, from int,
	sendRecord func(obs.GenerationRecord), sendState func(string, JobState), beat func()) {
	lastSent := from - 1
	lastBeat := time.Now()
	for {
		if j, ok := s.jobs.get(id); ok {
			s.streamLocal(r, j, lastSent+1, sendRecord, sendState, beat)
			return
		}
		for _, rec := range s.journalRecords(id) {
			if rec.Generation > lastSent {
				sendRecord(rec)
				lastSent = rec.Generation
				lastBeat = time.Now()
			}
		}
		rec, err := s.store.Get(id)
		if err != nil || rec.State.Terminal() {
			state := JobFailed
			if err == nil {
				state = localState(rec.State)
			}
			sendState(id, state)
			return
		}
		if time.Since(lastBeat) >= sseHeartbeat {
			beat()
			lastBeat = time.Now()
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(s.cfg.PollInterval):
		}
	}
}
