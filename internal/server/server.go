// Package server is the long-running InSiPS design & scoring service
// behind cmd/insipsd. The one-shot CLIs rebuild the PIPE similarity
// database on every invocation — the exact preprocessing cost the paper
// moves offline; a service instead loads the proteome and interaction
// graph once, caches pipe.Engine instances keyed by the persistence
// fingerprint, and serves:
//
//   - POST /v1/score — synchronous batched scoring (Engine.ScoreMany)
//     with a per-request thread budget;
//   - POST /v1/designs — asynchronous design campaigns: every job is a
//     record in a jobstore.Store (429 backpressure when its backlog is
//     full) that one of the replica's claim loops leases, runs and
//     finishes, with per-generation progress via GET /v1/designs/{id}
//     and prompt cancellation via DELETE /v1/designs/{id};
//   - GET /healthz and GET /metrics — liveness plus queue depth, jobs by
//     state, engine-cache hits/misses, and request-latency counters;
//     Config.ExtraMetrics appends external collectors (e.g. a netcluster
//     master's lease and reconnect counters) to the same exposition.
//
// There is one job path. Config.Store decides only where the records
// live: in a shared directory (jobs outlive the process, any replica may
// claim them, drain hands running jobs to a peer) or, when nil, in this
// process's memory (jobstore.OpenMemory). Leases, fair share, admission
// and cancellation are the same code either way.
//
// Everything is stdlib net/http; Drain implements graceful SIGTERM
// shutdown (stop intake, then hand off or finish running jobs).
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/jobstore"
	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/ppigraph"
	"repro/internal/seq"
)

// Config assembles a Server.
type Config struct {
	// Proteins and Graph are the proteome and known-interaction network
	// served by every engine configuration. Required.
	Proteins []seq.Sequence
	Graph    *ppigraph.Graph
	// Pipe is the default engine configuration used when a request does
	// not ask for a variant. Zero value = package pipe defaults.
	Pipe pipe.Config
	// DBPath optionally points at a persisted similarity database
	// (cmd/buildpipedb output); engine loads whose fingerprint matches it
	// skip the expensive build.
	DBPath string
	// BuildThreads parallelizes engine construction (<= 0: GOMAXPROCS).
	BuildThreads int
	// QueueWorkers is the number of concurrent design jobs. Default 2.
	QueueWorkers int
	// QueueCapacity bounds the number of accepted-but-not-running jobs;
	// submissions beyond it receive 429. Default 16.
	QueueCapacity int
	// MaxScoreThreads caps the per-request thread budget of /v1/score.
	// Default GOMAXPROCS.
	MaxScoreThreads int
	// Engines are pre-built engines seeded into the cache under their own
	// fingerprints (embedders and tests that already paid for a build).
	Engines []*pipe.Engine
	// ExtraMetrics are appended to the GET /metrics exposition after the
	// service's own counters. Embedders running a distributed evaluation
	// master alongside the service plug its counters in here, e.g.
	//
	//	func(w io.Writer) { master.Stats().WritePrometheus(w, "insipsd_netcluster") }
	ExtraMetrics []func(io.Writer)
	// Logger, if non-nil, receives structured events for job lifecycle and
	// each job's run → generation → evaluation spans. Nil stays silent.
	Logger *obs.Logger
	// Stages collects per-stage timing histograms across all jobs,
	// rendered on GET /metrics as insipsd_stage_seconds. Nil creates a
	// private registry; pass one to share it with an embedding process.
	Stages *obs.Registry
	// JournalDir, if non-empty, gives every design job a run journal (and
	// periodic checkpoints) under JournalDir/<job-id>/.
	JournalDir string
	// CheckpointEvery is the checkpoint cadence (generations) for
	// journaled jobs. 0 = the obs default; negative disables checkpoints.
	CheckpointEvery int
	// ProgressBuffer is how many recent generation records each job keeps
	// in memory for GET /v1/designs/{id}/progress. Default 256.
	ProgressBuffer int

	// Store holds the job records; nil means jobstore.OpenMemory(), a
	// store private to this process. A durable store (jobstore.Open on a
	// directory every replica shares) makes the deployment multi-replica:
	// jobs are claimed under a lease by whichever replica fair-share
	// selects them, and recovered by peers when a replica dies. It
	// requires JournalDir (the checkpoints peers resume from live there,
	// so it must be shared storage across replicas).
	Store *jobstore.Store
	// ReplicaID names this replica in leases and logs. Default
	// "insipsd-<pid>".
	ReplicaID string
	// JobLease is how long a claimed job stays owned without renewal
	// (renewal runs at a third of this). Default 15s.
	JobLease time.Duration
	// PollInterval is how often an idle claim loop looks at the store
	// unprompted — cross-replica discovery and lease-expiry
	// recovery; a submit on this replica wakes its claim loops directly
	// — and the remote progress-follow cadence. Default 250ms.
	PollInterval time.Duration
	// Tenants enables multi-tenant auth, rate limiting and fair-share
	// admission. Empty = open single-tenant service (no auth).
	Tenants []Tenant
	// SSEHeartbeat is the keep-alive comment cadence on the events
	// stream. Default 15s.
	SSEHeartbeat time.Duration
}

func (c Config) withDefaults() Config {
	if c.QueueWorkers <= 0 {
		c.QueueWorkers = 2
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 16
	}
	if c.MaxScoreThreads <= 0 {
		c.MaxScoreThreads = runtime.GOMAXPROCS(0)
	}
	if c.Stages == nil {
		c.Stages = obs.NewRegistry()
	}
	if c.ProgressBuffer <= 0 {
		c.ProgressBuffer = 256
	}
	if c.ReplicaID == "" {
		c.ReplicaID = fmt.Sprintf("insipsd-%d", os.Getpid())
	}
	if c.JobLease <= 0 {
		c.JobLease = 15 * time.Second
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 250 * time.Millisecond
	}
	if c.SSEHeartbeat <= 0 {
		c.SSEHeartbeat = 15 * time.Second
	}
	return c
}

// Server is the service. Create with New, mount Handler on an
// http.Server, and call Drain on shutdown.
type Server struct {
	cfg     Config
	engines *engineCache
	jobs    *jobStore
	metrics *metrics
	mux     *http.ServeMux
	store   *jobstore.Store
	tenants *tenantRegistry
}

// New validates the configuration and starts the claim loops. No engine
// is built yet; call Preload to pay the default-configuration build cost
// up front rather than on the first request.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Proteins) == 0 || cfg.Graph == nil {
		return nil, fmt.Errorf("server: need a proteome and an interaction graph")
	}
	if cfg.Graph.NumProteins() != len(cfg.Proteins) {
		return nil, fmt.Errorf("server: %d proteins but graph has %d vertices",
			len(cfg.Proteins), cfg.Graph.NumProteins())
	}
	if cfg.Store == nil {
		cfg.Store = jobstore.OpenMemory()
	}
	if cfg.Store.Durable() && cfg.JournalDir == "" {
		return nil, fmt.Errorf("server: the persistent job store requires JournalDir (shared across replicas) for checkpoint recovery")
	}
	tenants, err := newTenantRegistry(cfg.Tenants)
	if err != nil {
		return nil, err
	}
	m := newMetrics()
	engines := newEngineCache(cfg.Proteins, cfg.Graph, cfg.DBPath, cfg.BuildThreads, m)
	for _, eng := range cfg.Engines {
		engines.seed(eng)
	}
	s := &Server{
		cfg:     cfg,
		engines: engines,
		metrics: m,
		mux:     http.NewServeMux(),
		store:   cfg.Store,
		tenants: tenants,
	}
	s.jobs = newJobStore(engines, m, cfg.QueueWorkers, jobObsConfig{
		logger:          cfg.Logger,
		stages:          cfg.Stages,
		journalDir:      cfg.JournalDir,
		checkpointEvery: cfg.CheckpointEvery,
		progressBuffer:  cfg.ProgressBuffer,
	}, claimConfig{
		store:     cfg.Store,
		replicaID: cfg.ReplicaID,
		lease:     cfg.JobLease,
		poll:      cfg.PollInterval,
		wake:      make(chan struct{}, cfg.QueueWorkers),
		weights:   tenants.weights,
		resolve: func(raw json.RawMessage) (designSpec, error) {
			var req DesignRequest
			if err := json.Unmarshal(raw, &req); err != nil {
				return designSpec{}, fmt.Errorf("server: stored job spec: %w", err)
			}
			return s.specFromRequest(req)
		},
	})
	s.routes()
	return s, nil
}

// authed wraps a /v1 handler with tenant authentication and the
// tenant's token-bucket rate limit. Open deployments (no tenants
// configured) pass every request through as the public tenant.
func (s *Server) authed(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tenant, err := s.tenants.authenticate(r)
		if err != nil {
			s.metrics.authFailed.Add(1)
			writeError(w, http.StatusUnauthorized, "%v", err)
			return
		}
		if !tenant.allow(time.Now()) {
			s.metrics.rateLimited.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests,
				"tenant %q over its request rate (%.3g/s)", tenant.Name, tenant.RatePerSec)
			return
		}
		ctx := context.WithValue(r.Context(), tenantCtxKey{}, tenant)
		h(w, r.WithContext(ctx))
	}
}

func (s *Server) routes() {
	// /healthz and /metrics stay unauthenticated: probes and scrapers
	// should not need tenant keys. Everything under /v1 is authed.
	s.mux.HandleFunc("GET /healthz", s.metrics.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/score", s.metrics.instrument("score", s.authed(s.handleScore)))
	s.mux.HandleFunc("POST /v1/designs", s.metrics.instrument("designs_create", s.authed(s.handleDesignCreate)))
	s.mux.HandleFunc("GET /v1/designs", s.metrics.instrument("designs_list", s.authed(s.handleDesignList)))
	s.mux.HandleFunc("GET /v1/designs/{id}", s.metrics.instrument("designs_get", s.authed(s.handleDesignGet)))
	s.mux.HandleFunc("GET /v1/designs/{id}/progress", s.metrics.instrument("designs_progress", s.authed(s.handleDesignProgress)))
	s.mux.HandleFunc("GET /v1/designs/{id}/events", s.metrics.instrument("designs_events", s.authed(s.handleDesignEvents)))
	s.mux.HandleFunc("DELETE /v1/designs/{id}", s.metrics.instrument("designs_cancel", s.authed(s.handleDesignCancel)))
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Stages returns the per-stage timing registry shared by every design
// job — the one rendered as insipsd_stage_seconds on GET /metrics.
func (s *Server) Stages() *obs.Registry { return s.cfg.Stages }

// Preload builds (or loads from the persisted database) the engine for
// the default configuration, so the first request does not pay the
// preprocessing cost. It reports whether the engine came from the
// persisted database and how long the load took.
func (s *Server) Preload() (fromDB bool, elapsed time.Duration, err error) {
	begin := time.Now()
	if _, err = s.engines.get(s.cfg.Pipe); err != nil {
		return false, 0, err
	}
	key := pipe.Fingerprint(s.cfg.Proteins, s.cfg.Pipe)
	s.engines.mu.Lock()
	if e, ok := s.engines.entries[key]; ok {
		fromDB = e.fromDB
	}
	s.engines.mu.Unlock()
	return fromDB, time.Since(begin), nil
}

// Drain gracefully shuts the job subsystem down: new submissions are
// rejected, and running jobs are handed back to a durable store for a
// peer to resume or — on the in-memory store — run to completion with
// the backlog, stragglers being cancelled when ctx expires (they stop
// within one generation). Call after http.Server.Shutdown so in-flight
// HTTP requests have settled.
func (s *Server) Drain(ctx context.Context) error { return s.jobs.drain(ctx) }
