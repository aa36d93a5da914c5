// Package server is the long-running InSiPS design & scoring service
// behind cmd/insipsd. The one-shot CLIs search the PIPE similarity
// database afresh on every invocation — the preprocessing the paper
// moves offline; a service instead loads the proteome and interaction
// graph once, holds one pipe.Engine over them (its window table fills as
// jobs read it) and serves:
//
//   - POST /v1/score — synchronous batched scoring (Engine.ScoreMany)
//     with a per-request thread budget;
//   - POST /v1/designs — asynchronous design campaigns: every job is a
//     record in a jobstore.Store (429 backpressure when its backlog is
//     full) that one of the replica's claim loops leases, runs and
//     finishes, with per-generation progress via GET /v1/designs/{id}
//     and prompt cancellation via DELETE /v1/designs/{id};
//   - GET /healthz and GET /metrics — liveness plus queue depth, jobs by
//     state, the engine's window-table counters, and request-latency
//     counters.
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
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/jobstore"
	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/ppigraph"
	"repro/internal/seq"
)

// Config assembles a Server.
type Config struct {
	// Proteins and Graph are the proteome and known-interaction network
	// the service's engine is built over. Required.
	Proteins []seq.Sequence
	Graph    *ppigraph.Graph
	// QueueWorkers is the number of concurrent design jobs. Default 2.
	QueueWorkers int
	// QueueCapacity bounds the number of accepted-but-not-running jobs;
	// submissions beyond it receive 429. Default 16.
	QueueCapacity int
	// MaxScoreThreads caps the per-request thread budget of /v1/score.
	// Default GOMAXPROCS.
	MaxScoreThreads int
	// Engines holds at most one engine already built over Proteins with
	// pipe's default configuration (embedders and tests that already paid
	// for the build). Empty = New builds it.
	Engines []*pipe.Engine
	// Logger, if non-nil, receives structured events for job lifecycle and
	// each job's run → generation → evaluation spans. Nil stays silent.
	Logger *obs.Logger
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
	return c
}

// Server is the service. Create with New, mount Handler on an
// http.Server, and call Drain on shutdown.
type Server struct {
	cfg     Config
	engine  *pipe.Engine
	jobs    *jobStore
	metrics *metrics
	mux     *http.ServeMux
	store   *jobstore.Store
	tenants *tenantRegistry
}

// New validates the configuration, builds the engine unless Config.Engines
// holds it, and starts the claim loops.
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
	engine, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	m := newMetrics()
	s := &Server{
		cfg:     cfg,
		engine:  engine,
		metrics: m,
		mux:     http.NewServeMux(),
		store:   cfg.Store,
		tenants: tenants,
	}
	s.jobs = newJobStore(engine, m, cfg.QueueWorkers, jobObsConfig{
		logger:          cfg.Logger,
		stages:          obs.NewRegistry(),
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
		resolve: func(raw json.RawMessage) (core.Run, error) {
			var req DesignRequest
			if err := json.Unmarshal(raw, &req); err != nil {
				return core.Run{}, fmt.Errorf("server: stored job spec: %w", err)
			}
			// A stored record is decoded leniently, so a removed field is
			// dropped. Dropping this one would run a different job.
			var retired struct {
				Surrogate bool `json:"surrogate"`
			}
			if json.Unmarshal(raw, &retired) == nil && retired.Surrogate {
				return core.Run{}, errors.New("server: stored job asks for the surrogate pre-scorer, which the service no longer runs")
			}
			return s.resolve(req)
		},
	})
	s.routes()
	return s, nil
}

// newEngine returns the one engine every score and job runs on: the
// embedder's, if it is the one New would build, or a new one. The
// fingerprint covers the proteome and the similarity search; the
// scoring parameters are compared field by field.
func newEngine(cfg Config) (*pipe.Engine, error) {
	switch len(cfg.Engines) {
	case 0:
		return pipe.New(cfg.Proteins, cfg.Graph, pipe.Config{}, 0)
	case 1:
		eng := cfg.Engines[0]
		if eng == nil || eng.Fingerprint() != pipe.Fingerprint(cfg.Proteins, pipe.Config{}) || !defaultScoring(eng.Config()) {
			return nil, errors.New("server: the given engine was not built over Proteins with pipe's default configuration")
		}
		return eng, nil
	default:
		return nil, fmt.Errorf("server: %d engines given, the service runs one", len(cfg.Engines))
	}
}

// defaultScoring reports whether c's scoring parameters, every field
// but the similarity search's, are pipe's defaults.
func defaultScoring(c pipe.Config) bool {
	d := pipe.DefaultConfig()
	c.Index = d.Index
	return c == d
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

// Drain gracefully shuts the job subsystem down: new submissions are
// rejected, and running jobs are handed back to a durable store for a
// peer to resume or — on the in-memory store — run to completion with
// the backlog, stragglers being cancelled when ctx expires (they stop
// within one generation). Call after http.Server.Shutdown so in-flight
// HTTP requests have settled.
func (s *Server) Drain(ctx context.Context) error { return s.jobs.drain(ctx) }
