package server

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/evalbackend"
	"repro/internal/ga"
	"repro/internal/jobstore"
	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/search"
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

// ErrQueueFull is returned by submit when the job queue is at capacity —
// the service's backpressure signal, surfaced over HTTP as 429.
var ErrQueueFull = errors.New("server: design queue is full")

// ErrDraining is returned by submit once graceful shutdown has begun.
var ErrDraining = errors.New("server: draining, not accepting new jobs")

// designSpec is a fully validated design request, resolved to protein
// IDs and concrete GA/cluster parameters.
type designSpec struct {
	TargetID     int
	TargetName   string
	NonTargetIDs []int
	Pipe         pipe.Config
	GA           ga.Params
	Cluster      cluster.Config
	Termination  ga.Termination
	WarmStart    bool
	// DisableFitnessCache opts this job out of the store-wide memo cache.
	DisableFitnessCache bool
	// Shards > 1 evaluates each generation over that many independent
	// in-process pools behind a sharded backend (scores are unaffected).
	Shards int
	// Surrogate enables the online surrogate pre-scorer for this job:
	// after warmup, only the predicted top SurrogateTopK fraction of each
	// generation (plus a SurrogateExplore exploration quota) gets a full
	// PIPE evaluation; the rest are answered with capped model estimates.
	Surrogate        bool
	SurrogateTopK    float64
	SurrogateExplore float64
	// Search selects the job's search strategy (zero value = GA). The
	// strategy tag rides the checkpoint, so a resumed job — including
	// one claimed by a peer replica — fails fast on a strategy mismatch
	// instead of silently continuing under a different searcher.
	Search search.Config
}

// maxShards bounds the per-job evaluation pool fan-out a request may ask
// for; each shard allocates its own workers×threads pool.
const maxShards = 16

// job is one asynchronous design campaign. Mutable fields are guarded by
// mu; the HTTP handlers read snapshots, the owning worker writes.
type job struct {
	id     string
	tenant string
	spec   designSpec
	cancel context.CancelFunc
	ctx    context.Context

	// done is closed exactly once when the job reaches a local terminal
	// outcome (finished, or — in persistent mode — released/lease-lost);
	// SSE streams select on it.
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
	// drain-triggered context cancel (persistent mode releases the job
	// back to the queue on drain instead of finishing it as cancelled).
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
		Spec:     j.spec,
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
	Spec     designSpec
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

// jobStore owns the job table, the bounded queue, and the worker pool.
// All design jobs share one fitness memo cache; entries are keyed by
// problem fingerprint, so jobs over different engines or target sets
// never exchange wrong hits.
type jobStore struct {
	engines  *engineCache
	metrics  *metrics
	fitcache *core.FitnessCache
	obs      jobObsConfig

	queue chan *job
	wg    sync.WaitGroup

	// persist wires the durable multi-replica mode (nil = the original
	// in-memory queue). When set, workers claim jobs from the shared
	// jobstore instead of the channel; see persist.go.
	persist *persistConfig
	stop    chan struct{}

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // insertion order, for stable listings
	nextID   int
	running  int
	draining bool
	closed   bool
}

func newJobStore(engines *engineCache, m *metrics, workers, capacity int, oc jobObsConfig, pc *persistConfig) *jobStore {
	if oc.progressBuffer <= 0 {
		oc.progressBuffer = 256
	}
	s := &jobStore{
		engines:  engines,
		metrics:  m,
		fitcache: core.NewFitnessCache(0),
		obs:      oc,
		queue:    make(chan *job, capacity),
		persist:  pc,
		stop:     make(chan struct{}),
		jobs:     make(map[string]*job),
	}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		if pc != nil {
			go s.persistWorker()
		} else {
			go s.worker()
		}
	}
	return s
}

// submit validates queue capacity and registers the job, returning it
// as accepted: the snapshot is taken before the queue send, because a
// worker may start the job before submit returns. The send happens
// under the store lock so drain's close(queue) cannot race it; the send
// itself never blocks (capacity is checked by the non-blocking select).
func (s *jobStore) submit(spec designSpec, tenant string) (jobSnapshot, error) {
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		tenant:  tenant,
		spec:    spec,
		cancel:  cancel,
		ctx:     ctx,
		done:    make(chan struct{}),
		state:   JobQueued,
		created: time.Now(),
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		cancel()
		s.metrics.jobsRejected.Add(1)
		return jobSnapshot{}, ErrDraining
	}
	j.id = fmt.Sprintf("d-%06d", s.nextID+1)
	accepted := j.snapshot()
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		cancel()
		s.metrics.jobsRejected.Add(1)
		return jobSnapshot{}, ErrQueueFull
	}
	s.nextID++
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()
	s.metrics.jobsAccepted.Add(1)
	return accepted, nil
}

// get returns the job by ID.
func (s *jobStore) get(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// list returns snapshots of all jobs in submission order.
func (s *jobStore) list() []jobSnapshot {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*job, len(ids))
	for i, id := range ids {
		jobs[i] = s.jobs[id]
	}
	s.mu.Unlock()
	out := make([]jobSnapshot, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot()
	}
	return out
}

// cancelJob cancels a job in any non-terminal state. A queued job is
// marked cancelled immediately (the worker will skip it); a running job
// is interrupted via its context and the worker finalizes the state.
func (s *jobStore) cancelJob(id string) (jobSnapshot, error) {
	j, ok := s.get(id)
	if !ok {
		return jobSnapshot{}, fmt.Errorf("server: no job %q", id)
	}
	j.mu.Lock()
	j.userCancel = true
	if j.state == JobQueued {
		j.state = JobCancelled
		j.finished = time.Now()
		j.markDone()
	}
	j.mu.Unlock()
	j.cancel()
	return j.snapshot(), nil
}

// gauges reports the store's live counts for /metrics and /healthz.
func (s *jobStore) gauges() gauges {
	s.mu.Lock()
	byState := make(map[JobState]int)
	for _, j := range s.jobs {
		j.mu.Lock()
		byState[j.state]++
		j.mu.Unlock()
	}
	g := gauges{
		QueueDepth:  len(s.queue),
		Running:     s.running,
		JobsByState: byState,
		Draining:    s.draining,
		Fitness:     s.fitcache.Stats(),
	}
	s.mu.Unlock()
	if s.persist != nil {
		// Store mode: the shared store is the cluster-wide truth; the
		// local map only mirrors jobs this replica is running.
		g.StoreMode = true
		if st, err := s.persist.store.Stats(); err == nil {
			cluster := make(map[JobState]int, len(st.ByState))
			for state, n := range st.ByState {
				cluster[localState(state)] += n
			}
			g.JobsByState = cluster
			g.QueueDepth = st.ByState[jobstore.Pending]
			g.ActiveByTenant = st.ByTenant
			g.ServedByTenant = st.Served
		}
	}
	return g
}

// worker drains the queue, running one design campaign at a time.
func (s *jobStore) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.run(j)
	}
}

// run executes one job end to end: engine lookup (cache), designer
// construction, and the cancellable GA loop with per-generation progress
// recording.
func (s *jobStore) run(j *job) {
	j.mu.Lock()
	if j.state != JobQueued {
		// Cancelled while waiting in the queue.
		j.mu.Unlock()
		return
	}
	j.state = JobRunning
	j.started = time.Now()
	j.mu.Unlock()

	s.mu.Lock()
	s.running++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
	}()

	jobLogger := s.obs.logger.With("job", j.id, "target", j.spec.TargetName)
	finish := func(state JobState, res *core.Result, err error) {
		j.mu.Lock()
		j.state = state
		j.finished = time.Now()
		j.result = res
		if err != nil {
			j.errMessage = err.Error()
		}
		j.mu.Unlock()
		j.markDone()
		if err != nil {
			jobLogger.Warn("job finished", "state", state, "err", err)
		} else {
			jobLogger.Info("job finished", "state", state)
		}
	}

	designer, cleanup, err := s.prepare(j, jobLogger)
	if err != nil {
		finish(JobFailed, nil, err)
		return
	}
	defer cleanup()
	jobLogger.Info("job started",
		"population", j.spec.GA.PopulationSize, "non_targets", len(j.spec.NonTargetIDs))
	res, err := designer.RunContext(j.ctx)
	switch {
	case err == nil:
		finish(JobDone, &res, nil)
	case errors.Is(err, context.Canceled):
		// Keep the partial result: the best sequence of the completed
		// generations is still a valid (if under-evolved) design.
		finish(JobCancelled, &res, nil)
	default:
		finish(JobFailed, nil, err)
	}
}

// prepare assembles the designer for one job: engine lookup, backend
// sharding, surrogate wiring, journal and progress plumbing — shared by
// the in-memory run path and the persistent claim/resume path. The
// returned cleanup closes the job's journal (never nil).
func (s *jobStore) prepare(j *job, jobLogger *obs.Logger) (*core.Designer, func(), error) {
	cleanup := func() {}
	engine, err := s.engines.get(j.spec.Pipe)
	if err != nil {
		return nil, cleanup, err
	}
	jobCluster := j.spec.Cluster
	jobCluster.Metrics = s.obs.stages
	opts := core.Options{
		GA:                  j.spec.GA,
		Search:              j.spec.Search,
		Cluster:             jobCluster,
		Termination:         j.spec.Termination,
		WarmStart:           j.spec.WarmStart,
		FitnessCache:        s.fitcache,
		DisableFitnessCache: j.spec.DisableFitnessCache,
		Logger:              jobLogger,
		Metrics:             s.obs.stages,
		OnJournalRecord: func(rec *obs.GenerationRecord) {
			j.appendProgress(*rec, s.obs.progressBuffer)
			s.metrics.surrogateEstimated.Add(int64(rec.SurrogateEstimated))
			s.metrics.surrogateTrained.Add(int64(rec.SurrogateTrained))
			s.metrics.stolenBatches.Add(int64(rec.StolenBatches))
			s.metrics.hedgedWins.Add(int64(rec.HedgedWins))
			s.metrics.winCacheHits.Add(rec.WinCacheHits)
			s.metrics.winCacheMisses.Add(rec.WinCacheMisses)
			s.metrics.winCacheEvicted.Add(rec.WinCacheEvicted)
			s.metrics.deltaQueries.Add(rec.DeltaQueries)
		},
		OnGeneration: func(cp core.CurvePoint) {
			j.mu.Lock()
			j.curve = append(j.curve, cp)
			j.mu.Unlock()
		},
	}
	if j.spec.Surrogate {
		// Seeded from the job's GA seed (via core's zero-Seed default), so
		// a resubmitted spec reproduces the same filtering decisions.
		opts.Surrogate = &evalbackend.SurrogateConfig{
			TopK:    j.spec.SurrogateTopK,
			Explore: j.spec.SurrogateExplore,
		}
	}
	if j.spec.Shards > 1 {
		shards := make([]evalbackend.Backend, j.spec.Shards)
		for i := range shards {
			pb, err := evalbackend.NewPool(engine, j.spec.TargetID, j.spec.NonTargetIDs, jobCluster)
			if err != nil {
				return nil, cleanup, err
			}
			shards[i] = pb
		}
		sh, err := evalbackend.NewSharded(shards...)
		if err != nil {
			return nil, cleanup, err
		}
		opts.Backend = sh
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
		if j.spec.Search.Name() == search.StrategyLandscape {
			// The landscape census rides alongside the job's journal,
			// appended so a resumed job extends it.
			census, err := search.NewCensusWriter(search.CensusPath(filepath.Join(s.obs.journalDir, j.id)))
			if err != nil {
				journal.Close()
				return nil, func() {}, fmt.Errorf("server: opening landscape census: %w", err)
			}
			cleanup = func() {
				census.Close()
				journal.Close()
			}
			opts.Search.Landscape.OnCensus = census.Append
		}
	}
	designer, err := core.NewDesigner(core.Problem{
		Engine:       engine,
		TargetID:     j.spec.TargetID,
		NonTargetIDs: j.spec.NonTargetIDs,
	}, opts)
	if err != nil {
		cleanup()
		return nil, func() {}, err
	}
	return designer, cleanup, nil
}

// drain stops intake and waits for queued and running jobs to finish.
// If ctx expires first, the remaining jobs are cancelled and the wait
// resumes until the workers exit (prompt, since RunContext observes
// cancellation within a generation).
//
// In persistent mode drain is a handoff, not a wait: claim loops stop,
// and every locally running job is cancelled immediately — RunContext
// writes a final checkpoint on cancellation, and the runner releases
// the job back to the shared store, where a peer replica resumes it
// bit-identically. Pending jobs in the store are simply left for the
// peers.
func (s *jobStore) drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
	}
	if !s.closed {
		s.closed = true
		close(s.queue)
		close(s.stop)
	}
	var handoff []*job
	if s.persist != nil {
		for _, j := range s.jobs {
			handoff = append(handoff, j)
		}
	}
	s.mu.Unlock()
	for _, j := range handoff {
		j.cancel() // drain-cancel: runPersistent releases, does not finish
	}

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
	// Deadline passed: abort everything still in flight and wait for the
	// workers to notice.
	s.mu.Lock()
	for _, j := range s.jobs {
		j.cancel()
	}
	s.mu.Unlock()
	<-done
	return ctx.Err()
}
