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
// files — the master broadcasts the database —
//
//	insips -worker HOST:PORT
//
// then run the design with a listening master:
//
//	insips -target YBL051C -listen :7631 -min-workers 4 [-lease 30s] \
//	       [-max-attempts 3] [-heartbeat 5s]
//
// Candidate evaluation fans out over the TCP cluster under task leases:
// tasks held by crashed or hung workers are re-issued automatically, and
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
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/evalbackend"
	"repro/internal/ga"
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
	var (
		proteomePath = flag.String("proteome", "data/proteome.fasta", "proteome FASTA")
		graphPath    = flag.String("graph", "data/interactions.tsv", "interaction TSV")
		targetName   = flag.String("target", "", "target protein name")
		nonTargets   = flag.String("non-targets", "", "comma-separated non-target names (default: all other proteins)")
		maxNT        = flag.Int("max-non-targets", 25, "cap on the non-target set size")
		dbPath       = flag.String("db", "", "precomputed PIPE similarity database (see cmd/buildpipedb)")
		outPath      = flag.String("out", "", "write the designed protein to this FASTA file")

		pop      = flag.Int("pop", 200, "population size (paper: 1000)")
		seqLen   = flag.Int("len", 150, "designed sequence length")
		pCross   = flag.Float64("p-crossover", 0.5, "crossover probability")
		pMutate  = flag.Float64("p-mutate", 0.4, "mutation probability")
		pCopy    = flag.Float64("p-copy", 0.1, "copy probability")
		pAA      = flag.Float64("p-mutate-aa", 0.05, "per-residue mutation probability")
		seed     = flag.Int64("seed", 1, "random seed")
		minGens  = flag.Int("min-gens", 100, "minimum generations (paper: 250)")
		stall    = flag.Int("stall", 50, "stop after this many generations without a new best")
		maxGens  = flag.Int("max-gens", 400, "hard generation cap")
		warm     = flag.Bool("warm-start", true, "seed the population with natural-fragment chimeras")
		workers  = flag.Int("workers", 2, "worker processes")
		threads  = flag.Int("threads", 2, "threads per worker")
		shards   = flag.Int("shards", 1, "shard evaluation over this many work-stealing in-process pools (1 = one pool)")
		islands  = flag.Int("islands", 0, "run the multi-rack island model with this many masters (0 = single master)")
		syncIv   = flag.Int("sync-interval", 1, "island mode: generations between master syncs")
		progress = flag.Int("progress", 25, "print progress every N generations (0 = quiet)")

		surrogate   = flag.Bool("surrogate", false, "triage each generation through the online surrogate pre-scorer; only the predicted top candidates get full PIPE evaluations")
		surrTopK    = flag.Float64("surrogate-topk", 0.10, "fraction of each generation forwarded to real evaluation by predicted fitness (-surrogate mode)")
		surrExplore = flag.Float64("surrogate-explore", 0.05, "additional fraction evaluated at random as an exploration quota (-surrogate mode)")

		strategy   = flag.String("strategy", "ga", "search strategy: ga, beam, anneal or landscape (docs/DESIGN.md §2.3f)")
		beamWidth  = flag.Int("beam-width", 8, "beam width: survivors kept per generation (-strategy beam)")
		beamExpand = flag.Int("beam-expand", 6, "children per beam node, including its survival copy (-strategy beam)")
		beamElite  = flag.Int("beam-elite-extra", 6, "extra mutant children for the top-ranked node; 0 disables elite re-expansion (-strategy beam)")
		beamDepth  = flag.Int("beam-depth", 0, "tree depth: overrides -max-gens with an exact generation cap (-strategy beam; 0 = use -max-gens)")
		annealT0   = flag.Float64("anneal-t0", 0.02, "initial temperature of the geometric schedule (-strategy anneal)")
		annealCool = flag.Float64("anneal-cooling", 0.995, "geometric cooling factor per generation, in (0,1) (-strategy anneal)")
		annealTMin = flag.Float64("anneal-tmin", 1e-4, "temperature floor of the schedule (-strategy anneal)")
		landEps    = flag.Float64("landscape-eps", 0.01, "neutral-walk acceptance band |Δfitness| <= eps (-strategy landscape)")
		landPat    = flag.Int("landscape-patience", 20, "census cadence for neutral walkers and stall threshold for hill climbers (-strategy landscape)")

		journalDir = flag.String("journal", "", "run-journal directory: append per-generation JSONL records and periodic checkpoints here")
		resume     = flag.Bool("resume", false, "resume from the checkpoint in the -journal directory instead of starting fresh")
		ckptEvery  = flag.Int("checkpoint-every", 25, "generations between full population checkpoints (-journal mode; negative disables)")
		logLevel   = flag.String("log-level", "", "structured log level: debug, info, warn or error (empty = off)")
		logJSON    = flag.Bool("log-json", false, "emit structured logs as JSON lines instead of key=value text")

		workerAddr  = flag.String("worker", "", "run as an evaluation worker serving the master at this address (no data files needed)")
		listenAddr  = flag.String("listen", "", "evaluate candidates over TCP workers; listen for them on this address")
		minWorkers  = flag.Int("min-workers", 1, "wait for this many workers before designing (-listen mode)")
		lease       = flag.Duration("lease", 30*time.Second, "task lease before the master re-issues it (-listen mode)")
		maxAttempts = flag.Int("max-attempts", 3, "dispatch attempts before a task is abandoned (-listen mode)")
		heartbeat   = flag.Duration("heartbeat", 0, "liveness ping interval, broadcast to workers (0 = derived from -lease)")
		backoffMin  = flag.Duration("backoff-min", 100*time.Millisecond, "worker reconnect backoff floor (-worker mode)")
		backoffMax  = flag.Duration("backoff-max", 10*time.Second, "worker reconnect backoff ceiling (-worker mode)")
		fallback    = flag.Bool("fallback-local", false, "re-evaluate abandoned tasks on a local pool (-listen mode, or -shards > 1)")
		minLive     = flag.Int("min-live-workers", 0, "hold dispatch while fewer workers are connected (-listen mode; 0 = no gate)")
		hedge       = flag.Bool("hedge", false, "duplicate the tail of each straggling round onto a local pool; first result wins (-listen mode)")
		hedgeFrac   = flag.Float64("hedge-fraction", 0.10, "fraction of each round eligible for hedged duplicates (-hedge mode)")
		hedgePct    = flag.Float64("hedge-percentile", 0.90, "observed round-latency percentile that arms the hedge (-hedge mode)")
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
	if *targetName == "" {
		log.Fatal("need -target NAME")
	}
	// Flag sanity checks fail fast, before the proteome is loaded.
	if *shards < 1 {
		log.Fatalf("-shards must be at least 1 (got %d); use 1 for a single pool or N > 1 for work-stealing shards", *shards)
	}
	if *shards > 1 && *listenAddr != "" {
		log.Fatal("-shards shards over in-process pools and cannot be combined with -listen (TCP workers)")
	}
	if *shards > 1 && *islands > 1 {
		log.Fatal("-shards cannot be combined with -islands (each island already owns its own pool)")
	}
	if *fallback && *listenAddr == "" && *shards <= 1 {
		log.Fatal("-fallback-local requires -listen or -shards > 1: it recovers tasks those backends abandon, and a single local pool has nothing to fall back from")
	}
	if *minLive > 0 && *listenAddr == "" {
		log.Fatal("-min-live-workers requires -listen (it gates dispatch while the TCP fleet is depopulated)")
	}
	if *hedge {
		if *listenAddr == "" {
			log.Fatal("-hedge requires -listen (it duplicates the cluster's straggling tail onto a local pool)")
		}
		if *hedgeFrac <= 0 || *hedgeFrac > 1 || *hedgePct <= 0 || *hedgePct >= 1 {
			log.Fatal("-hedge-fraction must be in (0,1] and -hedge-percentile in (0,1)")
		}
	} else if *hedgeFrac != 0.10 || *hedgePct != 0.90 {
		log.Fatal("-hedge-fraction/-hedge-percentile require -hedge")
	}
	// Strategy flags fail fast the same way: tuning knobs for a strategy
	// that is not selected are almost certainly operator error.
	searchCfg := search.Config{Strategy: *strategy}
	switch *strategy {
	case search.StrategyGA, search.StrategyBeam, search.StrategyAnneal, search.StrategyLandscape:
	default:
		log.Fatalf("-strategy must be one of %v (got %q)", search.Strategies(), *strategy)
	}
	if *strategy != search.StrategyBeam && (*beamWidth != 8 || *beamExpand != 6 || *beamElite != 6 || *beamDepth != 0) {
		log.Fatal("-beam-width/-beam-expand/-beam-elite-extra/-beam-depth require -strategy beam")
	}
	if *strategy != search.StrategyAnneal && (*annealT0 != 0.02 || *annealCool != 0.995 || *annealTMin != 1e-4) {
		log.Fatal("-anneal-t0/-anneal-cooling/-anneal-tmin require -strategy anneal")
	}
	if *strategy != search.StrategyLandscape && (*landEps != 0.01 || *landPat != 20) {
		log.Fatal("-landscape-eps/-landscape-patience require -strategy landscape")
	}
	if *islands > 1 && *strategy != search.StrategyGA {
		log.Fatalf("-islands migrates between genetic-algorithm populations and cannot be combined with -strategy %s", *strategy)
	}
	switch *strategy {
	case search.StrategyBeam:
		elite := *beamElite
		if elite == 0 {
			elite = -1 // flag 0 means "no re-expansion", config 0 means "default"
		}
		searchCfg.Beam = search.BeamConfig{Width: *beamWidth, Expand: *beamExpand, EliteExtra: elite, Depth: *beamDepth}
	case search.StrategyAnneal:
		searchCfg.Anneal = search.AnnealConfig{T0: *annealT0, Cooling: *annealCool, TMin: *annealTMin}
	case search.StrategyLandscape:
		searchCfg.Landscape = search.LandscapeConfig{Eps: *landEps, Patience: *landPat}
	}

	proteins, err := seq.LoadFASTAFile(*proteomePath)
	if err != nil {
		log.Fatal(err)
	}
	graph, err := ppigraph.LoadTSVFile(*graphPath)
	if err != nil {
		log.Fatal(err)
	}
	var engine *pipe.Engine
	if *dbPath != "" {
		log.Printf("loading PIPE similarity database %s...", *dbPath)
		engine, err = pipe.NewFromDBFile(proteins, graph, pipe.Config{}, *dbPath)
		if errors.Is(err, pipe.ErrStaleDB) {
			log.Fatalf("stale database %s: it was built for a different proteome or configuration; rebuild with cmd/buildpipedb (%v)",
				*dbPath, err)
		}
	} else {
		log.Printf("building PIPE engine over %d proteins, %d interactions...",
			len(proteins), graph.NumEdges())
		engine, err = pipe.New(proteins, graph, pipe.Config{}, 0)
	}
	if err != nil {
		log.Fatal(err)
	}
	targetID, ok := graph.ID(*targetName)
	if !ok {
		log.Fatalf("target %q not in the proteome", *targetName)
	}
	var ntIDs []int
	if *nonTargets != "" {
		for _, name := range strings.Split(*nonTargets, ",") {
			id, ok := graph.ID(strings.TrimSpace(name))
			if !ok {
				log.Fatalf("non-target %q not in the proteome", name)
			}
			ntIDs = append(ntIDs, id)
		}
	} else {
		for id := 0; id < graph.NumProteins() && len(ntIDs) < *maxNT; id++ {
			if id != targetID {
				ntIDs = append(ntIDs, id)
			}
		}
	}

	metrics := obs.NewRegistry()
	opts := core.Options{
		GA: ga.Params{
			PopulationSize:  *pop,
			PCopy:           *pCopy,
			PMutate:         *pMutate,
			PCrossover:      *pCross,
			PMutateAA:       *pAA,
			SeqLen:          *seqLen,
			CrossoverMargin: 10,
			Seed:            *seed,
		},
		Search:      searchCfg,
		WarmStart:   *warm,
		Cluster:     cluster.Config{Workers: *workers, ThreadsPerWorker: *threads, Metrics: metrics},
		Termination: ga.Termination{MinGenerations: *minGens, StallGenerations: *stall, MaxGenerations: *maxGens},
		Logger:      logger,
		Metrics:     metrics,
	}
	if *beamDepth > 0 {
		// Beam depth is the tree's exact generation budget.
		opts.Termination = ga.Termination{MaxGenerations: *beamDepth}
	}
	if *resume && *journalDir == "" {
		log.Fatal("-resume requires -journal DIR (the directory holding the checkpoint)")
	}
	var journal *obs.RunJournal
	if *journalDir != "" && *islands <= 1 {
		var err error
		journal, err = obs.OpenJournal(*journalDir, obs.JournalOptions{CheckpointEvery: *ckptEvery, Logger: logger})
		if err != nil {
			log.Fatal(err)
		}
		defer journal.Close()
		opts.Journal = journal
	}
	if *strategy == search.StrategyLandscape && *journalDir != "" {
		// The landscape census rides alongside the journal: one JSONL
		// record per local optimum / neutral-walk report, appended so a
		// resumed run extends it.
		census, err := search.NewCensusWriter(search.CensusPath(*journalDir))
		if err != nil {
			log.Fatal(err)
		}
		defer census.Close()
		opts.Search.Landscape.OnCensus = census.Append
	}
	if *progress > 0 && *islands <= 1 {
		opts.OnGeneration = func(cp core.CurvePoint) {
			if cp.Generation%*progress == 0 {
				log.Printf("gen %4d: fitness %.4f  target %.4f  maxNT %.4f",
					cp.Generation, cp.Fitness, cp.Target, cp.MaxNonTarget)
			}
		}
	}
	if *surrogate {
		if *islands > 1 {
			log.Fatal("-surrogate cannot be combined with -islands (each island evaluates independently; the shared model would break island determinism)")
		}
		if *surrTopK <= 0 || *surrTopK > 1 || *surrExplore < 0 || *surrExplore > 1 {
			log.Fatal("-surrogate-topk must be in (0,1] and -surrogate-explore in [0,1]")
		}
		opts.Surrogate = &evalbackend.SurrogateConfig{TopK: *surrTopK, Explore: *surrExplore}
	} else if *surrTopK != 0.10 || *surrExplore != 0.05 {
		log.Fatal("-surrogate-topk/-surrogate-explore require -surrogate")
	}
	localPool := func() evalbackend.Backend {
		pb, err := evalbackend.NewPool(engine, targetID, ntIDs,
			cluster.Config{Workers: *workers, ThreadsPerWorker: *threads, Metrics: metrics})
		if err != nil {
			log.Fatal(err)
		}
		return pb
	}
	var sharded *evalbackend.Sharded
	if *shards > 1 {
		shardBackends := make([]evalbackend.Backend, *shards)
		for i := range shardBackends {
			shardBackends[i] = localPool()
		}
		sh, err := evalbackend.NewSharded(shardBackends...)
		if err != nil {
			log.Fatal(err)
		}
		sharded = sh
		backend := evalbackend.Backend(sh)
		if *fallback {
			// A failed shard's tasks come back abandoned; re-score them
			// on a fresh pool instead of scoring zero fitness.
			backend = evalbackend.WithRetry(backend, localPool(), logger)
		}
		opts.Backend = backend
	}
	var master *netcluster.Master
	if *listenAddr != "" {
		if *islands > 1 {
			log.Fatal("-listen (TCP workers) cannot be combined with -islands; islands evaluate on in-process pools")
		}
		ln, err := net.Listen("tcp", *listenAddr)
		if err != nil {
			log.Fatal(err)
		}
		master = netcluster.NewMasterOptions(
			netcluster.NewSetup(engine, targetID, ntIDs, *threads), ln,
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
		if *hedge {
			// Straggling rounds duplicate their tail onto a local pool;
			// whichever copy lands first wins, stale copies are dropped.
			backend = evalbackend.WithHedging(backend, localPool(), evalbackend.HedgingConfig{
				Fraction:   *hedgeFrac,
				Percentile: *hedgePct,
			}, logger)
		}
		if *fallback {
			// Abandoned tasks (all attempts exhausted) re-evaluate on a
			// local pool instead of scoring zero fitness.
			backend = evalbackend.WithRetry(backend, localPool(), logger)
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
	problem := core.Problem{Engine: engine, TargetID: targetID, NonTargetIDs: ntIDs}
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
			ires, err = island.Resume(runCtx, problem, opts, icfg, cps)
		} else {
			ires, err = island.Run(runCtx, problem, opts, icfg)
		}
		if err != nil {
			fatalRun(icfg.Journals, *journalDir, ires.Generations, err)
		}
		fmt.Printf("island model: %d masters, %d syncs, best from island %d\n",
			*islands, ires.Migrations, ires.BestIsland)
		fmt.Printf("fitness            %.4f\n", ires.Best.Fitness)
		designed := ires.Best.Seq.WithName("anti-" + *targetName)
		if *outPath != "" {
			if err := saveFASTA(*outPath, designed); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s\n", *outPath)
		} else {
			fmt.Printf("sequence: %s\n", designed.Residues())
		}
		return
	}
	designer, err := core.NewDesigner(problem, opts)
	if err != nil {
		log.Fatal(err)
	}
	var res core.Result
	if *resume {
		cp, err := obs.LoadCheckpoint(*journalDir)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("resuming from %s: generation %d, best fitness %.4f",
			obs.CheckpointPath(*journalDir), cp.Generation, cp.BestFitness)
		res, err = designer.ResumeContext(runCtx, cp)
		if err != nil {
			fatalRun([]*obs.RunJournal{journal}, *journalDir, res.Generations, err)
		}
	} else {
		res, err = designer.RunContext(runCtx)
		if err != nil {
			fatalRun([]*obs.RunJournal{journal}, *journalDir, res.Generations, err)
		}
	}
	if master != nil {
		st := master.Stats()
		log.Printf("cluster: %d tasks completed, %d re-issued, %d leases expired, %d abandoned, %d worker disconnects, %d drained",
			st.TasksCompleted, st.TasksReissued, st.LeasesExpired, st.TasksQuarantined, st.WorkerDisconnects, st.WorkersDrained)
	}
	if sharded != nil {
		for i, ss := range sharded.ShardStats() {
			log.Printf("shard %d: %d batches dispatched (%d stolen), %d failed, service EWMA %s",
				i, ss.Dispatched, ss.StolenBatches, ss.Failed, time.Duration(ss.EWMAServiceNS))
		}
	}

	fmt.Printf("designed anti-%s after %d generations\n", *targetName, res.Generations)
	fmt.Printf("fitness            %.4f\n", res.BestDetail.Fitness)
	fmt.Printf("PIPE vs target     %.4f\n", res.BestDetail.Target)
	fmt.Printf("max off-target     %.4f\n", res.BestDetail.MaxNonTarget)
	fmt.Printf("avg off-target     %.4f\n", res.BestDetail.AvgNonTarget)
	designed := res.Best.WithName("anti-" + *targetName)
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
