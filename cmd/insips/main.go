// Command insips designs an inhibitory protein: given a proteome, a
// known-interaction network and a target protein, it evolves a novel
// sequence predicted to bind the target and nothing else (the paper's
// core workflow). Non-targets default to every other protein in the
// proteome, the paper's "all other proteins" recipe, clipped by
// -max-non-targets.
//
// Usage:
//
//	insips -proteome data/proteome.fasta -graph data/interactions.tsv \
//	       -target YBL051C -pop 200 -min-gens 250 -stall 50 \
//	       -out anti-YBL051C.fasta
//
// Distributed operation (the paper's master/worker deployment, with
// fault tolerance): start any number of workers, which need no data
// files — the master broadcasts the proteome —
//
//	insips -worker HOST:PORT
//
// then run the design with a listening master:
//
//	insips -target YBL051C -listen :7631 -min-workers 4 [-lease 15s] \
//	       [-max-attempts 3] [-heartbeat 5s]
//
// Candidate evaluation fans out over the TCP cluster under task leases:
// a worker silent for -lease is dropped, tasks held by crashed or hung
// workers are re-issued automatically, and
// workers reconnect with backoff if the master restarts (see
// internal/netcluster).
//
// Long campaigns should run journaled: -journal DIR appends one JSONL
// record per generation and checkpoints the population every
// -checkpoint-every generations (and on SIGINT/SIGTERM). An interrupted
// run continues bit-identically with the same flags plus -resume.
// Structured tracing goes to stderr with -log-level debug|info|warn|error
// (-log-json for machine-readable lines); see docs/OPERATIONS.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/evalbackend"
	"repro/internal/island"
	"repro/internal/netcluster"
	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/ppigraph"
	"repro/internal/search"
	"repro/internal/seq"
)

// ensureParentDir creates the directory a file is about to be written
// into, so -out (and journal) paths in fresh directories work instead of
// failing with "no such file or directory".
func ensureParentDir(path string) error {
	dir := filepath.Dir(path)
	if dir == "" || dir == "." {
		return nil
	}
	return os.MkdirAll(dir, 0o755)
}

// saveFASTA writes the designed sequence, creating parent directories.
func saveFASTA(path string, s seq.Sequence) error {
	if err := ensureParentDir(path); err != nil {
		return err
	}
	return seq.SaveFASTAFile(path, []seq.Sequence{s})
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("insips: ")
	// The design run is a core.Spec, the one insipsd decodes from a POST
	// /v1/designs body; its flags default to core.CLIDefaults.
	spec := core.CLIDefaults
	spec.BindFlags(flag.CommandLine)
	var (
		proteomePath = flag.String("proteome", "data/proteome.fasta", "proteome FASTA")
		graphPath    = flag.String("graph", "data/interactions.tsv", "interaction TSV")
		outPath      = flag.String("out", "", "write the designed protein to this FASTA file")

		islands  = flag.Int("islands", 0, "run the multi-rack island model with this many masters (0 = single master)")
		syncIv   = flag.Int("sync-interval", 1, "island mode: generations between master syncs")
		progress = flag.Int("progress", 25, "print progress every N generations (0 = quiet)")

		journalDir = flag.String("journal", "", "run-journal directory: append per-generation JSONL records and periodic checkpoints here")
		resume     = flag.Bool("resume", false, "resume from the checkpoint in the -journal directory instead of starting fresh")
		ckptEvery  = flag.Int("checkpoint-every", 25, "generations between full population checkpoints (-journal mode; negative disables)")
		logLevel   = flag.String("log-level", "", "structured log level: debug, info, warn or error (empty = off)")
		logJSON    = flag.Bool("log-json", false, "emit structured logs as JSON lines instead of key=value text")

		workerAddr  = flag.String("worker", "", "run as an evaluation worker serving the master at this address (no data files needed)")
		listenAddr  = flag.String("listen", "", "evaluate candidates over TCP workers; listen for them on this address")
		minWorkers  = flag.Int("min-workers", 1, "wait for this many workers before designing (-listen mode)")
		lease       = flag.Duration("lease", netcluster.DefaultLeaseTimeout, "how long a worker may be silent before the master drops it and re-issues its tasks (-listen mode)")
		maxAttempts = flag.Int("max-attempts", 3, "dispatch attempts before a task is abandoned (-listen mode)")
		heartbeat   = flag.Duration("heartbeat", 0, "liveness ping interval, broadcast to workers (0 = a third of -lease, at most 5s)")
		backoffMin  = flag.Duration("backoff-min", 100*time.Millisecond, "worker reconnect backoff floor (-worker mode)")
		backoffMax  = flag.Duration("backoff-max", 10*time.Second, "worker reconnect backoff ceiling (-worker mode)")
		fallback    = flag.Bool("fallback-local", false, "re-evaluate abandoned tasks on a local pool (-listen mode)")
		minLive     = flag.Int("min-live-workers", 0, "hold dispatch while fewer workers are connected (-listen mode; 0 = no gate)")
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

	if *workerAddr != "" {
		if *listenAddr != "" {
			log.Fatal("-worker and -listen are mutually exclusive")
		}
		// Workers are data-free: the master broadcasts the proteome and
		// interaction network, and the engine is rebuilt (or reused, on
		// reconnect) from that. The loop survives master restarts. The
		// first SIGINT/SIGTERM drains gracefully — the current task is
		// finished and delivered, no attempt is burned — and a second
		// hard-stops.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		drain := make(chan struct{})
		sig := make(chan os.Signal, 2)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			log.Printf("worker: draining — finishing the current task (interrupt again to stop now)")
			close(drain)
			<-sig
			cancel()
		}()
		log.Printf("worker: serving master at %s (interrupt to drain)", *workerAddr)
		n, _ := netcluster.RunWorkerLoop(ctx, *workerAddr, netcluster.WorkerOptions{
			ReconnectMin: *backoffMin,
			ReconnectMax: *backoffMax,
			Drain:        drain,
			Logf:         log.Printf,
			Logger:       logger,
		})
		log.Printf("worker: processed %d candidates", n)
		return
	}
	// The spec fails fast, before the proteome is loaded, and so do the
	// deployment flags' cross-checks, which are the CLI's own; both exit
	// 2, as a bad flag does.
	if err := spec.Validate(); err != nil {
		usageError(err.Error())
	}
	strategy := search.Config{Strategy: spec.Strategy}.Name()
	switch {
	case *fallback && *listenAddr == "":
		usageError("-fallback-local requires -listen: it recovers tasks the TCP cluster abandons, and a local pool has nothing to fall back from")
	case *minLive > 0 && *listenAddr == "":
		usageError("-min-live-workers requires -listen (it gates dispatch while the TCP fleet is depopulated)")
	case *islands > 1 && strategy != search.StrategyGA:
		usageError("-islands migrates between genetic-algorithm populations and cannot be combined with -strategy " + strategy)
	case *islands > 1 && *listenAddr != "":
		usageError("-listen (TCP workers) cannot be combined with -islands; islands evaluate on in-process pools")
	case *resume && *journalDir == "":
		usageError("-resume requires -journal DIR (the directory holding the checkpoint)")
	}

	proteins, err := seq.LoadFASTAFile(*proteomePath)
	if err != nil {
		log.Fatal(err)
	}
	graph, err := ppigraph.LoadTSVFile(*graphPath)
	if err != nil {
		log.Fatal(err)
	}
	run, err := spec.Resolve(graph)
	if err != nil {
		usageError(err.Error())
	}
	log.Printf("building PIPE engine over %d proteins, %d interactions...",
		len(proteins), graph.NumEdges())
	engine, err := pipe.New(proteins, graph, pipe.Config{}, 0)
	if err != nil {
		log.Fatal(err)
	}

	metrics := obs.NewRegistry()
	opts := &run.Options
	opts.Cluster.Metrics = metrics
	opts.Logger = logger
	opts.Metrics = metrics
	var journal *obs.RunJournal
	if *journalDir != "" && *islands <= 1 {
		journal, err = obs.OpenJournal(*journalDir, obs.JournalOptions{CheckpointEvery: *ckptEvery, Logger: logger})
		if err != nil {
			log.Fatal(err)
		}
		defer journal.Close()
		opts.Journal = journal
	}
	if *progress > 0 && *islands <= 1 {
		opts.OnGeneration = func(cp core.CurvePoint) {
			if cp.Generation%*progress == 0 {
				log.Printf("gen %4d: fitness %.4f  target %.4f  maxNT %.4f",
					cp.Generation, cp.Fitness, cp.Target, cp.MaxNonTarget)
			}
		}
	}
	var master *netcluster.Master
	if *listenAddr != "" {
		ln, err := net.Listen("tcp", *listenAddr)
		if err != nil {
			log.Fatal(err)
		}
		master = netcluster.NewMasterOptions(
			netcluster.NewSetup(engine, run.TargetID, run.NonTargetIDs, spec.Threads), ln,
			netcluster.Options{
				LeaseTimeout:      *lease,
				MaxAttempts:       *maxAttempts,
				HeartbeatInterval: *heartbeat,
				MinLiveWorkers:    *minLive,
				Logger:            logger,
				Metrics:           metrics,
			})
		defer master.Close()
		log.Printf("master: listening on %s; waiting for %d worker(s) — start them with: insips -worker %s",
			master.Addr(), *minWorkers, master.Addr())
		for master.Workers() < *minWorkers {
			time.Sleep(50 * time.Millisecond)
		}
		log.Printf("master: %d worker(s) connected (lease %s, max %d attempts)",
			master.Workers(), *lease, *maxAttempts)
		backend := evalbackend.Backend(evalbackend.NewMaster(master))
		if *fallback {
			// Abandoned tasks (all attempts exhausted) re-evaluate on a
			// local pool instead of scoring zero fitness.
			pool, err := evalbackend.NewPool(engine, run.TargetID, run.NonTargetIDs, opts.Cluster)
			if err != nil {
				log.Fatal(err)
			}
			backend = evalbackend.WithRetry(backend, pool, logger)
		}
		opts.Backend = backend
		// Stamp per-generation worker/lease deltas into the journal stream.
		var prev netcluster.Stats
		opts.OnJournalRecord = func(rec *obs.GenerationRecord) {
			st := master.Stats()
			rec.Workers = st.WorkersConnected
			rec.TasksReissued = st.TasksReissued - prev.TasksReissued
			rec.LeasesExpired = st.LeasesExpired - prev.LeasesExpired
			prev = st
		}
	}
	// Interrupting a run (SIGINT/SIGTERM) stops it cleanly; a journaled
	// run checkpoints so it can resume with -resume.
	runCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	problem := run.Problem(engine)
	var best seq.Sequence
	if *islands > 1 {
		// Multi-rack mode (paper Section 3.2): one master per rack,
		// syncing after each round. Every island is a Designer built from
		// opts and runs exactly -max-gens generations.
		icfg := island.Config{Islands: *islands, SyncInterval: *syncIv}
		islandDir := func(k int) string { return filepath.Join(*journalDir, fmt.Sprintf("island-%d", k)) }
		if *journalDir != "" {
			// One journal, and one checkpoint, per island under DIR/island-<k>.
			for k := 0; k < *islands; k++ {
				j, err := obs.OpenJournal(islandDir(k), obs.JournalOptions{CheckpointEvery: *ckptEvery, Logger: logger})
				if err != nil {
					log.Fatal(err)
				}
				defer j.Close()
				icfg.Journals = append(icfg.Journals, j)
			}
		}
		if *progress > 0 {
			icfg.OnGeneration = func(gen int, best []float64) {
				if gen%*progress == 0 {
					log.Printf("gen %4d: island bests %.4f", gen, best)
				}
			}
		}
		var ires island.Result
		if *resume {
			cps := make([]obs.Checkpoint, *islands)
			for k := range cps {
				if cps[k], err = obs.LoadCheckpoint(islandDir(k)); err != nil {
					log.Fatal(err)
				}
			}
			log.Printf("resuming %d islands from %s: generation %d", *islands, *journalDir, cps[0].Generation)
			ires, err = island.Resume(runCtx, problem, *opts, icfg, cps)
		} else {
			ires, err = island.Run(runCtx, problem, *opts, icfg)
		}
		if err != nil {
			fatalRun(icfg.Journals, *journalDir, ires.Generations, err)
		}
		fmt.Printf("island model: %d masters, %d syncs, best from island %d\n",
			*islands, ires.Migrations, ires.BestIsland)
		fmt.Printf("fitness            %.4f\n", ires.Best.Fitness)
		best = ires.Best.Seq
	} else {
		designer, err := core.NewDesigner(problem, *opts)
		if err != nil {
			log.Fatal(err)
		}
		var res core.Result
		if *resume {
			var cp obs.Checkpoint
			if cp, err = obs.LoadCheckpoint(*journalDir); err != nil {
				log.Fatal(err)
			}
			log.Printf("resuming from %s: generation %d, best fitness %.4f",
				obs.CheckpointPath(*journalDir), cp.Generation, cp.BestFitness)
			res, err = designer.ResumeContext(runCtx, cp)
		} else {
			res, err = designer.RunContext(runCtx)
		}
		if err != nil {
			fatalRun([]*obs.RunJournal{journal}, *journalDir, res.Generations, err)
		}
		if master != nil {
			st := master.Stats()
			log.Printf("cluster: %d tasks completed, %d re-issued, %d leases expired, %d abandoned, %d worker disconnects, %d drained",
				st.TasksCompleted, st.TasksReissued, st.LeasesExpired, st.TasksQuarantined, st.WorkerDisconnects, st.WorkersDrained)
		}
		fmt.Printf("designed anti-%s after %d generations\n", spec.Target, res.Generations)
		fmt.Printf("fitness            %.4f\n", res.BestDetail.Fitness)
		fmt.Printf("PIPE vs target     %.4f\n", res.BestDetail.Target)
		fmt.Printf("max off-target     %.4f\n", res.BestDetail.MaxNonTarget)
		fmt.Printf("avg off-target     %.4f\n", res.BestDetail.AvgNonTarget)
		best = res.Best
	}
	designed := best.WithName("anti-" + spec.Target)
	if *outPath != "" {
		if err := saveFASTA(*outPath, designed); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *outPath)
	} else {
		fmt.Printf("sequence: %s\n", designed.Residues())
	}
	if logger.Enabled() {
		for _, stage := range metrics.Stages() {
			h := metrics.Histogram(stage)
			logger.Info("stage timing", "stage", stage, "count", h.Count(),
				"p50", h.Quantile(0.5).String(), "p99", h.Quantile(0.99).String(),
				"total", h.Sum().String())
		}
	}
}

// usageError reports a run that cannot start — a spec error, with the
// message insipsd answers 400 with, or flags that cannot run together —
// and exits 2, as a bad flag does.
func usageError(msg string) {
	log.Print(msg)
	os.Exit(2)
}

// fatalRun reports a failed or interrupted run and exits, closing the
// journals first (log.Fatal skips deferred closes) and pointing the
// operator at -resume when a checkpoint exists to pick up from.
func fatalRun(journals []*obs.RunJournal, dir string, generations int, err error) {
	for _, j := range journals {
		if j != nil {
			j.Close()
		}
	}
	if errors.Is(err, context.Canceled) && dir != "" {
		log.Fatalf("interrupted after %d generations; continue with the same flags plus -resume (checkpoint in %s)",
			generations, dir)
	}
	log.Fatal(err)
}
