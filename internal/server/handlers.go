package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/jobstore"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/seq"
)

// ---- JSON wire types ----

// ScoreRequest asks for PIPE scores of one query against a batch of
// proteome proteins. Exactly one of Query (a novel sequence) or
// QueryName (a proteome protein) must be set. Against lists proteome
// protein names; AgainstAll scores the whole proteome instead.
type ScoreRequest struct {
	Query      *SequenceJSON `json:"query,omitempty"`
	QueryName  string        `json:"query_name,omitempty"`
	Against    []string      `json:"against,omitempty"`
	AgainstAll bool          `json:"against_all,omitempty"`
	// Threads is this request's thread budget for ScoreMany, clamped to
	// the server's MaxScoreThreads. 0 means the server maximum.
	Threads int `json:"threads,omitempty"`
}

// SequenceJSON is a named amino-acid sequence on the wire.
type SequenceJSON struct {
	Name     string `json:"name"`
	Residues string `json:"residues"`
}

// PairScore is one scored pair.
type PairScore struct {
	Name  string  `json:"name"`
	Score float64 `json:"score"`
}

// ScoreResponse returns the batch scores.
type ScoreResponse struct {
	Query     string      `json:"query"`
	Scores    []PairScore `json:"scores"`
	Threads   int         `json:"threads"`
	ElapsedMS float64     `json:"elapsed_ms"`
}

// DesignRequest submits an asynchronous design campaign: the run
// specification insips takes as flags, with zero fields filled from
// core.ServiceDefaults. The strategy is journaled and stamped into
// checkpoints, so a job resumed after replica handoff fails fast if its
// checkpoint was written under a different strategy.
type DesignRequest = core.Spec

// JobJSON is the observable state of a design job.
type JobJSON struct {
	ID          string           `json:"id"`
	State       JobState         `json:"state"`
	Target      string           `json:"target"`
	Strategy    string           `json:"strategy"`
	NonTargets  int              `json:"non_targets"`
	Created     time.Time        `json:"created"`
	Started     *time.Time       `json:"started,omitempty"`
	Finished    *time.Time       `json:"finished,omitempty"`
	Generations int              `json:"generations"`
	Curve       []CurvePointJSON `json:"curve,omitempty"`
	Best        *DetailJSON      `json:"best,omitempty"`
	Sequence    string           `json:"sequence,omitempty"`
	FASTA       string           `json:"fasta,omitempty"`
	Error       string           `json:"error,omitempty"`
}

// CurvePointJSON is one generation of the learning curve (Figure 7).
type CurvePointJSON struct {
	Generation   int     `json:"generation"`
	Fitness      float64 `json:"fitness"`
	Target       float64 `json:"target"`
	MaxNonTarget float64 `json:"max_non_target"`
	AvgNonTarget float64 `json:"avg_non_target"`
}

// DetailJSON is the score decomposition of the best design.
type DetailJSON struct {
	Fitness      float64 `json:"fitness"`
	Target       float64 `json:"target"`
	MaxNonTarget float64 `json:"max_non_target"`
	AvgNonTarget float64 `json:"avg_non_target"`
}

// ProgressJSON is the GET /v1/designs/{id}/progress body: the tail of
// the job's run-journal stream. Generations counts every record the job
// has produced; Records holds the most recent ones (bounded by the
// server's in-memory ring and the request's ?n= parameter).
type ProgressJSON struct {
	ID          string                 `json:"id"`
	State       JobState               `json:"state"`
	Generations int                    `json:"generations"`
	Records     []obs.GenerationRecord `json:"records"`
}

// HealthJSON is the /healthz body.
type HealthJSON struct {
	Status        string  `json:"status"` // "ok" or "draining"
	UptimeSeconds float64 `json:"uptime_seconds"`
	Proteins      int     `json:"proteins"`
	Interactions  int     `json:"interactions"`
	QueueDepth    int     `json:"queue_depth"`
	Running       int     `json:"running"`
}

type errorJSON struct {
	Error string `json:"error"`
}

// ---- helpers ----

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorJSON{Error: fmt.Sprintf(format, args...)})
}

// maxRequestBody caps a JSON request body. The largest legitimate one
// names every protein of a paper-scale proteome (6,707 names) as score
// partners or non-targets, well under 1 MiB; nothing is read past it.
const maxRequestBody = 1 << 20

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func (s *Server) clampThreads(n int) int {
	if n <= 0 || n > s.cfg.MaxScoreThreads {
		return s.cfg.MaxScoreThreads
	}
	return n
}

// resolveNames maps proteome protein names to IDs, reporting the first
// unknown name.
func (s *Server) resolveNames(names []string) ([]int, error) {
	ids := make([]int, len(names))
	for i, name := range names {
		id, ok := s.cfg.Graph.ID(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("protein %q not in the proteome", name)
		}
		ids[i] = id
	}
	return ids, nil
}

// ---- handlers ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	g := s.jobs.gauges(s.store.LiveStats)
	status := "ok"
	code := http.StatusOK
	if g.Draining {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, HealthJSON{
		Status:        status,
		UptimeSeconds: time.Since(s.metrics.start).Seconds(),
		Proteins:      len(s.cfg.Proteins),
		Interactions:  s.cfg.Graph.NumEdges(),
		QueueDepth:    g.QueueDepth,
		Running:       g.Running,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.render(w, s.jobs.gauges(s.store.Stats), s.jobs.fitcache, s.engine)
	s.jobs.obs.stages.WritePrometheus(w, "insipsd_stage")
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	var req ScoreRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	var query seq.Sequence
	var err error
	switch {
	case req.Query != nil && req.QueryName != "":
		writeError(w, http.StatusBadRequest, "set query or query_name, not both")
		return
	case req.Query != nil:
		query, err = seq.New(req.Query.Name, req.Query.Residues)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad query sequence: %v", err)
			return
		}
	case req.QueryName != "":
		id, ok := s.cfg.Graph.ID(req.QueryName)
		if !ok {
			writeError(w, http.StatusBadRequest, "protein %q not in the proteome", req.QueryName)
			return
		}
		query = s.cfg.Proteins[id]
	default:
		writeError(w, http.StatusBadRequest, "need query (novel sequence) or query_name (proteome protein)")
		return
	}

	var ids []int
	var names []string
	if req.AgainstAll {
		ids = make([]int, len(s.cfg.Proteins))
		names = make([]string, len(s.cfg.Proteins))
		for i := range ids {
			ids[i] = i
			names[i] = s.cfg.Graph.Name(i)
		}
	} else {
		if len(req.Against) == 0 {
			writeError(w, http.StatusBadRequest, "need against (protein names) or against_all")
			return
		}
		names = req.Against
		if ids, err = s.resolveNames(req.Against); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}

	threads := s.clampThreads(req.Threads)
	begin := time.Now()
	scores := s.engine.ScoreMany(query, ids, threads)
	elapsed := time.Since(begin)

	resp := ScoreResponse{
		Query:     query.Name(),
		Scores:    make([]PairScore, len(ids)),
		Threads:   threads,
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
	}
	for i, sc := range scores {
		resp.Scores[i] = PairScore{Name: names[i], Score: sc}
	}
	writeJSON(w, http.StatusOK, resp)
}

// resolve is how insipsd reads a design request, at submit and again in
// whichever replica claims the job: zero fields from
// core.ServiceDefaults, then validated and resolved against the served
// proteome.
func (s *Server) resolve(req DesignRequest) (core.Run, error) {
	return req.WithDefaults(core.ServiceDefaults).Resolve(s.cfg.Graph)
}

// admit is a submit's admission decision. It runs inside the store
// transaction that creates the job's record (Store.CreateIf): the tenant
// cap and the backlog bound are judged on the live set the record joins
// — cluster-wide on a shared store — so concurrent submits cannot
// overshoot either, and a job admitted before drain began is in the
// store before any claim loop looks for the last time.
func (s *Server) admit(tenant *tenantState, live jobstore.Stats) error {
	active, cap := live.ByTenant[tenant.Name], tenant.MaxActiveJobs
	switch {
	case s.jobs.draining.Load():
		s.metrics.jobsRejected.Add(1)
		return ErrDraining
	case cap > 0 && active >= cap:
		s.metrics.admissionRejected.Add(1)
		return fmt.Errorf("tenant %q has %d active jobs (cap %d)", tenant.Name, active, cap)
	case live.ByState[jobstore.Pending] >= s.cfg.QueueCapacity:
		s.metrics.jobsRejected.Add(1)
		return ErrQueueFull
	}
	return nil
}

func (s *Server) handleDesignCreate(w http.ResponseWriter, r *http.Request) {
	var req DesignRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if _, err := s.resolve(req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The store keeps the request, not the resolved run: whichever
	// replica fair-share hands the job to — possibly not this one —
	// resolves it again, to the same run.
	raw, err := json.Marshal(req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	tenant := tenantFrom(r)
	var rejected error
	rec, err := s.store.CreateIf(tenant.Name, raw, func(live jobstore.Stats) error {
		rejected = s.admit(tenant, live)
		return rejected
	})
	switch {
	case rejected != nil:
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusTooManyRequests, "%v", rejected)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
	default:
		s.jobs.claim.wakeClaimLoop()
		s.metrics.jobsAccepted.Add(1)
		writeJSON(w, http.StatusAccepted, s.storeJobJSON(rec, false))
	}
}

func (s *Server) handleDesignList(w http.ResponseWriter, r *http.Request) {
	tenant := tenantFrom(r)
	recs, err := s.store.List()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	out := []JobJSON{}
	for _, rec := range recs {
		if !s.canSee(tenant, rec.Tenant) {
			continue
		}
		// Prefer the live local mirror: it carries the in-flight curve
		// and result the store only sees at finish.
		if j, ok := s.jobs.get(rec.ID); ok {
			out = append(out, renderJobJSON(j.snapshot(), false))
		} else {
			out = append(out, s.storeJobJSON(rec, false))
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// lookupJob resolves a job ID for a tenant: the live local job when this
// replica runs (or ran) it, else the store record. A job the tenant may
// not see is reported as not found (no existence oracle).
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*job, jobstore.Record, bool) {
	id := r.PathValue("id")
	tenant := tenantFrom(r)
	if j, ok := s.jobs.get(id); ok {
		j.mu.Lock()
		jobTenant := j.tenant
		j.mu.Unlock()
		if !s.canSee(tenant, jobTenant) {
			writeError(w, http.StatusNotFound, "no job %q", id)
			return nil, jobstore.Record{}, false
		}
		return j, jobstore.Record{}, true
	}
	rec, err := s.store.Get(id)
	if err != nil || !s.canSee(tenant, rec.Tenant) {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return nil, jobstore.Record{}, false
	}
	return nil, rec, true
}

func (s *Server) handleDesignGet(w http.ResponseWriter, r *http.Request) {
	j, rec, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	if j != nil {
		writeJSON(w, http.StatusOK, renderJobJSON(j.snapshot(), true))
		return
	}
	writeJSON(w, http.StatusOK, s.storeJobJSON(rec, true))
}

func (s *Server) handleDesignProgress(w http.ResponseWriter, r *http.Request) {
	j, rec, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	n := 32
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v <= 0 {
			writeError(w, http.StatusBadRequest, "bad n %q: want a positive integer", raw)
			return
		}
		n = v
	}
	if j == nil {
		// The job lives on another replica (or nobody claimed it yet):
		// serve the tail of its on-disk journal.
		recs := s.journalRecords(rec.ID)
		total := len(recs)
		if len(recs) > n {
			recs = recs[len(recs)-n:]
		}
		writeJSON(w, http.StatusOK, ProgressJSON{
			ID:          rec.ID,
			State:       localState(rec.State),
			Generations: total,
			Records:     recs,
		})
		return
	}
	recs, total := j.progressTail(n)
	if recs == nil {
		recs = []obs.GenerationRecord{}
	}
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, ProgressJSON{
		ID:          j.id,
		State:       state,
		Generations: total,
		Records:     recs,
	})
}

// journalRecords reads a job's journal tail from disk (empty when the
// job has no journal yet).
func (s *Server) journalRecords(id string) []obs.GenerationRecord {
	if s.cfg.JournalDir == "" {
		return []obs.GenerationRecord{}
	}
	recs, err := obs.ReadJournal(obs.JournalPath(filepath.Join(s.cfg.JournalDir, id)))
	if err != nil || recs == nil {
		return []obs.GenerationRecord{}
	}
	return recs
}

func (s *Server) handleDesignCancel(w http.ResponseWriter, r *http.Request) {
	if _, _, ok := s.lookupJob(w, r); !ok {
		return
	}
	id := r.PathValue("id")
	// Flag the store record first so the owning replica (this one or a
	// peer) observes the request at its next lease renewal; a pending
	// job cancels immediately. Terminal records pass through unchanged:
	// cancelling is idempotent.
	if _, err := s.store.RequestCancel(id); err != nil && !errors.Is(err, jobstore.ErrTerminal) {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// Looked up after the flag is set: a job claimed here in between is
	// interrupted now, not a renewal later.
	if j, ok := s.jobs.get(id); ok {
		j.mu.Lock()
		j.userCancel = true
		j.mu.Unlock()
		j.cancel()
		writeJSON(w, http.StatusOK, renderJobJSON(j.snapshot(), false))
		return
	}
	rec, err := s.store.Get(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, s.storeJobJSON(rec, false))
}

// storeJobJSON renders a store record for a job this replica is not
// running (nobody is yet, a peer is, or it finished elsewhere). Terminal
// records carry the full rendered job JSON written by the finishing
// replica; live records are reconstructed from the stored request.
func (s *Server) storeJobJSON(rec jobstore.Record, withCurve bool) JobJSON {
	if rec.State.Terminal() && len(rec.Result) > 0 {
		var out JobJSON
		if err := json.Unmarshal(rec.Result, &out); err == nil && out.ID == rec.ID {
			if !withCurve {
				out.Curve = nil
			}
			return out
		}
	}
	out := JobJSON{
		ID:      rec.ID,
		State:   localState(rec.State),
		Created: time.UnixMilli(rec.CreatedMS),
		Error:   rec.Error,
	}
	var req DesignRequest
	if err := json.Unmarshal(rec.Spec, &req); err == nil {
		out.Target = req.Target
		out.Strategy = search.Config{Strategy: req.Strategy}.Name()
		if run, err := s.resolve(req); err == nil {
			out.NonTargets = len(run.NonTargetIDs)
		}
	}
	if rec.StartedMS > 0 {
		t := time.UnixMilli(rec.StartedMS)
		out.Started = &t
	}
	if rec.FinishedMS > 0 {
		t := time.UnixMilli(rec.FinishedMS)
		out.Finished = &t
	}
	return out
}

// renderJobJSON renders a snapshot; withCurve includes the full learning
// curve (job listings omit it to stay light).
func renderJobJSON(snap jobSnapshot, withCurve bool) JobJSON {
	out := JobJSON{
		ID:          snap.ID,
		State:       snap.State,
		Target:      snap.Run.Target,
		Strategy:    snap.Run.Options.Search.Name(),
		NonTargets:  len(snap.Run.NonTargetIDs),
		Created:     snap.Created,
		Generations: len(snap.Curve),
		Error:       snap.Err,
	}
	if !snap.Started.IsZero() {
		t := snap.Started
		out.Started = &t
	}
	if !snap.Finished.IsZero() {
		t := snap.Finished
		out.Finished = &t
	}
	if withCurve {
		out.Curve = make([]CurvePointJSON, len(snap.Curve))
		for i, cp := range snap.Curve {
			out.Curve[i] = CurvePointJSON{
				Generation:   cp.Generation,
				Fitness:      cp.Fitness,
				Target:       cp.Target,
				MaxNonTarget: cp.MaxNonTarget,
				AvgNonTarget: cp.AvgNonTarget,
			}
		}
	}
	if res := snap.Result; res != nil && res.Best.Len() > 0 {
		out.Best = &DetailJSON{
			Fitness:      res.BestDetail.Fitness,
			Target:       res.BestDetail.Target,
			MaxNonTarget: res.BestDetail.MaxNonTarget,
			AvgNonTarget: res.BestDetail.AvgNonTarget,
		}
		designed := res.Best.WithName("anti-" + snap.Run.Target)
		out.Sequence = designed.Residues()
		out.FASTA = fastaString(designed)
	}
	return out
}

// fastaString renders one sequence as FASTA text.
func fastaString(sq seq.Sequence) string {
	var b strings.Builder
	_ = seq.WriteFASTA(&b, []seq.Sequence{sq}, 60)
	return b.String()
}
