package server

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/jobstore"
	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/seq"
)

// JobState is the lifecycle state of a design job.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// ErrQueueFull rejects a submit when the store's pending backlog is at
// QueueCapacity — the service's backpressure signal, surfaced over HTTP
// as 429.
var ErrQueueFull = errors.New("server: design queue is full")

// ErrDraining rejects a submit once graceful shutdown has begun (429).
var ErrDraining = errors.New("server: draining, not accepting new jobs")

// job is this replica's mirror of one design campaign it claimed: the
// in-flight curve, progress ring and result the store only sees at
// finish. Mutable fields are guarded by mu; the HTTP handlers read
// snapshots, the owning claim loop writes.
type job struct {
	id     string
	tenant string
	run    core.Run
	cancel context.CancelFunc

	// done is closed exactly once when the job reaches a local terminal
	// outcome (finished, released or lease-lost); SSE streams select on
	// it.
	done     chan struct{}
	doneOnce sync.Once

	mu         sync.Mutex
	state      JobState
	created    time.Time
	started    time.Time
	finished   time.Time
	curve      []core.CurvePoint
	result     *core.Result
	bestSoFar  seq.Sequence
	errMessage string
	// userCancel distinguishes an operator/API cancellation from a
	// drain-triggered context cancel (a handoff drain releases the job
	// back to the store instead of finishing it as cancelled).
	userCancel bool
	// progress is a bounded ring of the most recent generation records
	// (the journal stream, kept in memory for the progress endpoint).
	progress      []obs.GenerationRecord
	progressTotal int // records ever appended, = last generation + 1

	// subs receive the live journal stream for SSE; appendProgress
	// broadcasts non-blockingly (a slow consumer drops records — SSE
	// clients detect the gap from the generation numbers and re-read
	// the progress endpoint).
	subMu sync.Mutex
	subs  map[chan obs.GenerationRecord]struct{}
}

// markDone closes the job's done channel (idempotent).
func (j *job) markDone() { j.doneOnce.Do(func() { close(j.done) }) }

// subscribe registers an SSE consumer; the returned cancel removes it.
func (j *job) subscribe(buffer int) (<-chan obs.GenerationRecord, func()) {
	ch := make(chan obs.GenerationRecord, buffer)
	j.subMu.Lock()
	if j.subs == nil {
		j.subs = make(map[chan obs.GenerationRecord]struct{})
	}
	j.subs[ch] = struct{}{}
	j.subMu.Unlock()
	return ch, func() {
		j.subMu.Lock()
		delete(j.subs, ch)
		j.subMu.Unlock()
	}
}

// appendProgress adds one generation record to the bounded ring and
// fans it out to SSE subscribers.
func (j *job) appendProgress(rec obs.GenerationRecord, limit int) {
	j.mu.Lock()
	j.progress = append(j.progress, rec)
	if len(j.progress) > limit {
		j.progress = j.progress[len(j.progress)-limit:]
	}
	j.progressTotal++
	j.mu.Unlock()
	j.subMu.Lock()
	for ch := range j.subs {
		select {
		case ch <- rec:
		default: // slow consumer: drop, the SSE writer resyncs by gen number
		}
	}
	j.subMu.Unlock()
}

// progressTail returns up to n of the job's most recent generation
// records plus the total count appended so far.
func (j *job) progressTail(n int) ([]obs.GenerationRecord, int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	recs := j.progress
	if n > 0 && len(recs) > n {
		recs = recs[len(recs)-n:]
	}
	return append([]obs.GenerationRecord(nil), recs...), j.progressTotal
}

func (j *job) snapshot() jobSnapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobSnapshot{
		ID:       j.id,
		Tenant:   j.tenant,
		Run:      j.run,
		State:    j.state,
		Created:  j.created,
		Started:  j.started,
		Finished: j.finished,
		Curve:    append([]core.CurvePoint(nil), j.curve...),
		Result:   j.result,
		Err:      j.errMessage,
	}
}

// jobSnapshot is an immutable copy of a job's observable state.
type jobSnapshot struct {
	ID       string
	Tenant   string
	Run      core.Run
	State    JobState
	Created  time.Time
	Started  time.Time
	Finished time.Time
	Curve    []core.CurvePoint
	Result   *core.Result
	Err      string
}

// jobObsConfig carries the observability wiring every job inherits.
type jobObsConfig struct {
	logger          *obs.Logger
	stages          *obs.Registry
	journalDir      string
	checkpointEvery int
	progressBuffer  int
}

// jobStore owns this replica's claim loops and its mirror of the jobs
// they run; the queue itself is the jobstore.Store. All design jobs share
// one fitness memo cache; entries are keyed by problem fingerprint, so
// jobs over different target sets never exchange wrong hits.
type jobStore struct {
	engine   *pipe.Engine
	metrics  *metrics
	fitcache *core.FitnessCache
	obs      jobObsConfig
	claim    claimConfig

	wg       sync.WaitGroup
	stop     chan struct{} // closed when drain begins: wakes idle claim loops
	stopOnce sync.Once
	// draining closes intake. It is read inside the store transaction of
	// every submit (Server.admit), so it is an atomic, not a mu field.
	draining atomic.Bool

	mu      sync.Mutex
	jobs    map[string]*job
	running int
	// halted: claim loops take no more jobs and the running ones have
	// been cancelled; release: those are handed back to the store for a
	// peer to resume, not finished as cancelled. Both set by drain.
	halted, release bool
}

func newJobStore(engine *pipe.Engine, m *metrics, workers int, oc jobObsConfig, cc claimConfig) *jobStore {
	if oc.progressBuffer <= 0 {
		oc.progressBuffer = 256
	}
	s := &jobStore{
		engine:   engine,
		metrics:  m,
		fitcache: core.NewFitnessCache(0),
		obs:      oc,
		claim:    cc,
		stop:     make(chan struct{}),
		jobs:     make(map[string]*job),
	}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.claimLoop()
	}
	return s
}

// get returns the local mirror of a job this replica runs or ran.
func (s *jobStore) get(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// gauges reports the live counts for /metrics and /healthz. The store is
// the truth for everything but this replica's own running count; stats
// is Store.Stats for /metrics (every state, so it reads every finished
// record) and Store.LiveStats for /healthz, which needs only the backlog
// and must stay O(live jobs) however long the replica has served.
func (s *jobStore) gauges(stats func() (jobstore.Stats, error)) gauges {
	s.mu.Lock()
	g := gauges{Running: s.running, Draining: s.draining.Load()}
	s.mu.Unlock()
	if st, err := stats(); err == nil {
		g.JobsByState = make(map[JobState]int, len(st.ByState))
		for state, n := range st.ByState {
			g.JobsByState[localState(state)] += n
		}
		g.QueueDepth = st.ByState[jobstore.Pending]
		g.ActiveByTenant = st.ByTenant
		g.ServedByTenant = st.Served
	}
	return g
}

// prepare assembles the designer for one job: journal and progress
// plumbing; the Designer evaluates on its own pool. The returned cleanup
// closes the job's journal (never nil).
func (s *jobStore) prepare(j *job, jobLogger *obs.Logger) (*core.Designer, func(), error) {
	cleanup := func() {}
	run := j.run
	opts := &run.Options
	opts.Cluster.Metrics = s.obs.stages
	opts.FitnessCache = s.fitcache
	opts.Logger = jobLogger
	opts.Metrics = s.obs.stages
	opts.OnJournalRecord = func(rec *obs.GenerationRecord) {
		if rec.CheckAccounting() != nil {
			s.metrics.invariantViolations.Add(1)
		}
		j.appendProgress(*rec, s.obs.progressBuffer)
	}
	opts.OnGeneration = func(cp core.CurvePoint) {
		j.mu.Lock()
		j.curve = append(j.curve, cp)
		j.mu.Unlock()
	}
	if s.obs.journalDir != "" {
		journal, err := obs.OpenJournal(filepath.Join(s.obs.journalDir, j.id), obs.JournalOptions{
			CheckpointEvery: s.obs.checkpointEvery,
			Logger:          jobLogger,
		})
		if err != nil {
			return nil, cleanup, fmt.Errorf("server: opening run journal: %w", err)
		}
		cleanup = func() { journal.Close() }
		opts.Journal = journal
	}
	designer, err := core.NewDesigner(run.Problem(s.engine), *opts)
	if err != nil {
		cleanup()
		return nil, func() {}, err
	}
	return designer, cleanup, nil
}

// drain stops intake and waits for the claim loops to exit. What they do
// first depends on the one thing the two kinds of store differ in by
// nature — whether anyone else can claim from it:
//
//   - A durable store makes drain a handoff, not a wait: claim loops
//     stop at once and every locally running job is cancelled —
//     RunContext writes a final checkpoint on cancellation, and the
//     runner releases the job back to the shared store, where a peer
//     replica resumes it bit-identically. Pending jobs are left for the
//     peers.
//   - A memory store has no peers, so the loops go on claiming until it
//     is empty; when ctx expires first, running jobs are cancelled
//     (finished as cancelled, keeping their partial result; they stop
//     within a generation) and pending ones are left unstarted.
func (s *jobStore) drain(ctx context.Context) error {
	handoff := s.claim.store.Durable()
	s.draining.Store(true)
	if handoff {
		s.halt(true)
	}
	s.stopOnce.Do(func() { close(s.stop) })
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	if !handoff {
		s.halt(false)
	}
	<-done
	return ctx.Err()
}

// halt stops the claim loops taking jobs and cancels the running ones.
func (s *jobStore) halt(release bool) {
	s.mu.Lock()
	s.halted, s.release = true, release
	for _, j := range s.jobs {
		j.cancel()
	}
	s.mu.Unlock()
}
