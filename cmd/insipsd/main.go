// Command insipsd is the long-running InSiPS design & scoring service:
// it loads a proteome and interaction network once, caches PIPE engines
// by fingerprint, and serves synchronous batched scoring plus an
// asynchronous design-job queue over HTTP/JSON (package server).
//
// Usage:
//
//	insipsd -addr :8080 -proteome data/proteome.fasta \
//	        -graph data/interactions.tsv [-db data/pipe.db]
//
// Then:
//
//	curl localhost:8080/healthz
//	curl -d '{"query_name":"YAL054C","against":["YAL055W"]}' localhost:8080/v1/score
//	curl -d '{"target":"YAL054C","max_generations":50}' localhost:8080/v1/designs
//	curl localhost:8080/v1/designs/d-000001
//	curl localhost:8080/metrics
//
// Every job is a record in a job store that the replica's claim loops
// lease (-job-lease), run and finish; -tenants enables API keys,
// per-tenant rate limits and weighted fair-share admission. -store-dir
// decides only where the records live. Without it they are in memory:
// SIGINT/SIGTERM stops intake, queued and running design jobs finish (up
// to -drain-timeout, then they are cancelled — jobs stop within one
// generation), and the process exits. With it they are in a directory
// every replica shares (requires -journal-dir on the same storage): a
// killed replica's jobs are recovered by peers and resumed from their
// checkpoints, and a drained replica hands its running jobs back for
// immediate pickup. See docs/OPERATIONS.md and docs/CAPACITY.md.
//
// Observability: -log-level enables structured slog tracing (add
// -log-json for JSON lines); -journal-dir gives every design job a run
// journal with periodic checkpoints under <dir>/<job-id>/; per-stage
// timing histograms appear on /metrics as insipsd_stage_seconds;
// GET /v1/designs/{id}/progress tails a job's journal stream; and
// -pprof-addr serves net/http/pprof on a separate listener (off by
// default). See docs/OPERATIONS.md.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/jobstore"
	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/ppigraph"
	"repro/internal/seq"
	"repro/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("insipsd: ")
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		proteomePath = flag.String("proteome", "data/proteome.fasta", "proteome FASTA")
		graphPath    = flag.String("graph", "data/interactions.tsv", "interaction TSV")
		dbPath       = flag.String("db", "", "precomputed PIPE similarity database (see cmd/buildpipedb)")
		buildThreads = flag.Int("build-threads", 0, "engine build threads (0 = all cores)")
		queueWorkers = flag.Int("queue-workers", 2, "concurrent design jobs")
		queueCap     = flag.Int("queue-cap", 16, "max queued design jobs before 429")
		scoreThreads = flag.Int("score-threads", 0, "per-request thread cap for /v1/score (0 = all cores)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "grace period for running jobs on shutdown")
		journalDir   = flag.String("journal-dir", "", "give every design job a run journal + checkpoints under this directory")
		ckptEvery    = flag.Int("checkpoint-every", 25, "generations between job checkpoints (-journal-dir mode; negative disables)")
		logLevel     = flag.String("log-level", "", "structured log level: debug, info, warn or error (empty = off)")
		logJSON      = flag.Bool("log-json", false, "emit structured logs as JSON lines instead of key=value text")
		pprofAddr    = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
		storeDir     = flag.String("store-dir", "", "keep job records in this directory, shared by all replicas, so they outlive the process (empty = in this process's memory)")
		replicaID    = flag.String("replica-id", "", "replica name in job leases and logs (default insipsd-<pid>)")
		jobLease     = flag.Duration("job-lease", 15*time.Second, "job ownership lease, renewed at a third of it; a dead replica's jobs are recovered after this")
		pollInterval = flag.Duration("poll-interval", 250*time.Millisecond, "how often an idle claim loop checks the store for peers' submits and expired leases; local submits wake it at once")
		tenantsPath  = flag.String("tenants", "", "JSON tenant file enabling API keys, rate limits and fair-share admission (empty = open access)")
	)
	flag.Parse()

	var logger *obs.Logger
	if *logLevel != "" {
		lv, err := obs.ParseLevel(*logLevel)
		if err != nil {
			log.Fatal(err)
		}
		if *logJSON {
			logger = obs.NewJSONLogger(os.Stderr, lv)
		} else {
			logger = obs.NewTextLogger(os.Stderr, lv)
		}
	}

	proteins, err := seq.LoadFASTAFile(*proteomePath)
	if err != nil {
		log.Fatal(err)
	}
	graph, err := ppigraph.LoadTSVFile(*graphPath)
	if err != nil {
		log.Fatal(err)
	}
	cfg := server.Config{
		Proteins:        proteins,
		Graph:           graph,
		DBPath:          *dbPath,
		BuildThreads:    *buildThreads,
		QueueWorkers:    *queueWorkers,
		QueueCapacity:   *queueCap,
		MaxScoreThreads: *scoreThreads,
		Logger:          logger,
		JournalDir:      *journalDir,
		CheckpointEvery: *ckptEvery,
		ReplicaID:       *replicaID,
		JobLease:        *jobLease,
		PollInterval:    *pollInterval,
	}
	if *storeDir != "" {
		if *journalDir == "" {
			log.Fatal("-store-dir requires -journal-dir (checkpoints must be on storage shared by all replicas)")
		}
		store, err := jobstore.Open(*storeDir)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Store = store
	}
	if *tenantsPath != "" {
		tenants, err := server.LoadTenantsFile(*tenantsPath)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Tenants = tenants
	}
	if *dbPath != "" {
		// Check staleness up front with a clear remedy, rather than
		// silently rebuilding what the operator explicitly pointed us at.
		dbFP, err := pipe.DBFingerprint(*dbPath)
		if err != nil {
			log.Fatal(err)
		}
		if want := pipe.Fingerprint(proteins, cfg.Pipe); dbFP != want {
			log.Fatalf("stale database %s: fingerprint %x does not match this proteome/config (%x); rebuild with cmd/buildpipedb",
				*dbPath, dbFP, want)
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("loaded %d proteins, %d interactions; preloading engine...",
		len(proteins), graph.NumEdges())
	fromDB, elapsed, err := srv.Preload()
	if err != nil {
		log.Fatal(err)
	}
	source := "built from scratch"
	if fromDB {
		source = "loaded from " + *dbPath
	}
	log.Printf("engine ready in %v (%s)", elapsed.Round(time.Millisecond), source)

	if *pprofAddr != "" {
		// A dedicated mux on a separate listener: the profiling surface is
		// opt-in and never exposed on the service address.
		pprofMux := http.NewServeMux()
		pprofMux.HandleFunc("/debug/pprof/", pprof.Index)
		pprofMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pprofMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pprofMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pprofMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof serving on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pprofMux); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	httpServer := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Printf("signal received, draining (timeout %v)...", *drainTimeout)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		_ = httpServer.Shutdown(shutdownCtx)
		if err := srv.Drain(shutdownCtx); err != nil {
			log.Printf("drain: cancelled remaining jobs: %v", err)
		}
	}()
	records := "memory"
	if *storeDir != "" {
		records = *storeDir
	}
	log.Printf("serving on %s (workers %d, queue %d, job records in %s)", *addr, *queueWorkers, *queueCap, records)
	if err := httpServer.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	// ListenAndServe returned because Shutdown ran; wait for the drain
	// goroutine's job cleanup by re-draining (idempotent, already done
	// when the goroutine finished first).
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	_ = srv.Drain(drainCtx)
	log.Print("drained, bye")
}
