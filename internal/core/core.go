// Package core is InSiPS itself: given a target protein and a set of
// non-target proteins, it evolves a novel protein sequence whose PIPE
// profile is "interacts with the target, interacts with nothing else".
//
// The fitness of a candidate sequence (paper Section 2.2) is
//
//	fitness(seq) = (1 - MAX(PIPE(seq, nt_1..nt_k))) * PIPE(seq, target)
//
// which peaks at 1 in the lower-right corner of the paper's Figure 2 heat
// map: target score 1, every non-target score 0.
//
// The Designer couples the genetic algorithm (package ga) with the
// master/worker PIPE evaluator (package cluster) and records the
// learning curves of Figure 7: per generation, the fittest individual's
// PIPE score against the target, its highest-scoring non-target and the
// average non-target score.
package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/evalbackend"
	"repro/internal/ga"
	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/search"
	"repro/internal/seq"
)

// Fitness is the InSiPS fitness function. nonTargets may be empty, in
// which case fitness equals the target score.
func Fitness(targetScore float64, nonTargetScores []float64) float64 {
	return (1 - MaxScore(nonTargetScores)) * targetScore
}

// MaxScore returns the maximum of scores, or 0 for an empty slice.
func MaxScore(scores []float64) float64 {
	max := 0.0
	for _, s := range scores {
		if s > max {
			max = s
		}
	}
	return max
}

// MeanScore returns the mean of scores, or 0 for an empty slice.
func MeanScore(scores []float64) float64 {
	if len(scores) == 0 {
		return 0
	}
	total := 0.0
	for _, s := range scores {
		total += s
	}
	return total / float64(len(scores))
}

// FitnessGrid samples the fitness surface on a res x res grid over
// (PIPE(seq,target), MAX(PIPE(seq,non-targets))) in [0,1]^2 — the data
// behind the paper's Figure 2 heat map. grid[i][j] is the fitness at
// target score j/(res-1) and max non-target score i/(res-1).
func FitnessGrid(res int) [][]float64 {
	if res < 2 {
		res = 2
	}
	grid := make([][]float64, res)
	for i := range grid {
		grid[i] = make([]float64, res)
		maxNT := float64(i) / float64(res-1)
		for j := range grid[i] {
			target := float64(j) / float64(res-1)
			grid[i][j] = (1 - maxNT) * target
		}
	}
	return grid
}

// Detail holds the score decomposition of one candidate.
//
// Every generation is evaluated target first (cluster.WithTargetFirst),
// which gives a candidate whose target score is exactly 0 a target-only
// Detail: Fitness and Target 0, exactly what the full decomposition
// has, but MaxNonTarget and AvgNonTarget left 0 because no non-target
// was scored. Only the generation's best Detail is ever read, and the
// run loop rescores a target-only best in full (cluster.Pool.Rescore)
// before a curve point, journal record, checkpoint or Result.BestDetail
// sees it, so every Detail a caller gets is the full one.
type Detail struct {
	Fitness float64
	// Target is the PIPE score against the target — with co-targets, the
	// weakest of the target and co-target scores.
	Target       float64
	MaxNonTarget float64
	AvgNonTarget float64

	targetOnly bool
}

// CurvePoint is one generation of a Figure 7 learning curve: the score
// decomposition of that generation's fittest individual.
type CurvePoint struct {
	Generation int
	Detail
}

// Problem specifies one design task over a PIPE engine.
type Problem struct {
	Engine   *pipe.Engine
	TargetID int
	// CoTargetIDs are further proteins the design must bind as well (the
	// paper's multi-target future work; see multi.go). The weakest of the
	// target and co-target scores stands in for PIPE(seq, target) in the
	// fitness, so an empty list is exactly the paper's formula.
	CoTargetIDs  []int
	NonTargetIDs []int
}

// Options configures a design run.
type Options struct {
	GA          ga.Params
	Cluster     cluster.Config
	Termination ga.Termination
	// Search selects the search strategy driving the design loop. The
	// zero value is the genetic algorithm, bit-identical to the
	// pre-Searcher pipeline; see package search for beam and anneal. GA
	// supplies the shared knobs (population/batch sizing, sequence
	// length, composition, mutation rate, seed) for every strategy.
	Search search.Config
	// OnGeneration, if non-nil, observes each generation's curve point as
	// the run progresses.
	OnGeneration func(CurvePoint)
	// Backend, if non-nil, supplies candidate evaluation instead of the
	// default in-process pool — e.g. evalbackend.NewMaster over a
	// netcluster.Master. The Designer layers its own middleware (metrics
	// span/timing, then the fitness memo cache) on top, and never closes
	// the backend: its lifecycle belongs to the caller. A candidate whose Result.Err is set (a task the
	// backend abandoned) scores zero fitness for that generation; a
	// call-level error aborts the run with a partial Result.
	Backend evalbackend.Backend
	// WarmStart seeds the initial population with chimeras spliced from
	// random natural-protein fragments instead of uniform random
	// sequences. The paper notes "any set of protein sequences can be
	// used as a starting population" and that runs can "benefit from
	// [the] starting pool containing a few very good sequences"; natural
	// fragments carry real interaction motifs, giving the GA an immediate
	// foothold at small population budgets.
	WarmStart bool
	// Logger, if non-nil, receives structured span events for the run:
	// run start/end, per-generation progress, and evaluation batches.
	Logger *obs.Logger
	// Metrics, if non-nil, collects per-stage timing histograms: the GA
	// operators (via the engine's stage observer), the PIPE evaluation
	// batch, whole generations, and checkpoint writes.
	Metrics *obs.Registry
	// Journal, if non-nil, receives one GenerationRecord per generation
	// and periodic population checkpoints (per its CheckpointEvery),
	// including a final checkpoint on context cancellation — the state
	// ResumeContext restarts from. The Designer does not close it.
	Journal *obs.RunJournal
	// OnJournalRecord, if non-nil, observes (and may annotate — e.g.
	// stamp netcluster worker/lease stats into) each generation's record
	// before it is appended. It fires even when Journal is nil, so
	// embedders can stream records without touching disk.
	OnJournalRecord func(*obs.GenerationRecord)
	// FitnessCache, if non-nil, memoizes candidate evaluations across
	// generations (and across Designers sharing the cache — entries are
	// keyed by problem fingerprint, so different problems never
	// cross-talk). If nil, the Designer creates a private cache of
	// DefaultFitnessCacheSize; set DisableFitnessCache to evaluate every
	// candidate unconditionally.
	FitnessCache *FitnessCache
	// DisableFitnessCache turns memoization off (ablation/debugging).
	DisableFitnessCache bool
}

// Result is the outcome of a design run.
type Result struct {
	// Best is the fittest sequence ever observed, with its decomposition.
	Best       seq.Sequence
	BestDetail Detail
	// Curve has one point per generation (the fittest individual of that
	// generation) — the paper's Figure 7 series.
	Curve []CurvePoint
	// Generations is the number of generations executed.
	Generations int
	// InvariantViolations counts the generations of this run whose
	// accounting broke the candidate conservation identity
	// (obs.GenerationRecord.CheckAccounting), with or without a journal,
	// or whose journal record did once OnJournalRecord had edited it.
	// Each such record is still journaled.
	InvariantViolations int
}

// Designer runs InSiPS on one problem. Create with NewDesigner; a
// Designer is single-use and not safe for concurrent use.
type Designer struct {
	problem  Problem
	opts     Options
	backend  evalbackend.Backend // the full middleware chain evaluateAll calls
	searcher search.Searcher

	problemFP uint64 // cache key namespace for this problem

	pool      *cluster.Pool   // rescores a target-only generation best
	runCtx    context.Context // the active run's context, threaded to the backend
	evaluated []seq.Sequence  // the current generation's candidates
	details   []Detail        // details of the current generation, by index
	evalErr   error           // first evaluation backend failure, surfaced by RunContext
	used      bool            // a Designer drives at most one run
	// violations counts the generations whose accounting broke the
	// conservation identity (Result.InvariantViolations).
	violations int

	// gen is the journal record of the current generation as far as
	// evaluateAll knows it: the evaluation accounting, from the chain's
	// Stats and the engine's counters around the call.
	// recordGeneration fills in the rest.
	gen obs.GenerationRecord
}

// NewDesigner validates the problem and wires the GA to the master/worker
// evaluator.
func NewDesigner(problem Problem, opts Options) (*Designer, error) {
	if problem.Engine == nil {
		return nil, fmt.Errorf("core: nil PIPE engine")
	}
	// Always construct the in-process pool: it validates the problem's
	// target/non-target IDs (for every backend) and costs nothing at
	// rest.
	wireNTs, err := problem.WireNonTargets()
	if err != nil {
		return nil, err
	}
	pool, err := cluster.New(problem.Engine, problem.TargetID, wireNTs, opts.Cluster)
	if err != nil {
		return nil, err
	}
	d := &Designer{problem: problem, opts: opts, pool: pool, runCtx: context.Background()}
	// The fingerprint keys both the fitness memo cache and checkpoint
	// compatibility checks, so compute it regardless of caching.
	d.problemFP = problem.Fingerprint()
	// Assemble the evaluation chain: leaf backend (caller-supplied or the
	// in-process pool), then the metrics span/timing layer, then —
	// outermost — the fitness memo cache so hits skip evaluation and
	// timing alike.
	base := opts.Backend
	if base == nil {
		base = evalbackend.WrapPool(pool)
	}
	d.backend = evalbackend.WithMetrics(base, opts.Logger, opts.Metrics)
	if !opts.DisableFitnessCache {
		cache := opts.FitnessCache
		if cache == nil {
			cache = NewFitnessCache(DefaultFitnessCacheSize)
		}
		d.backend = evalbackend.WithFitnessCache(d.backend, cache, d.problemFP)
	}
	sr, err := search.New(opts.Search, opts.GA, ga.EvaluatorFunc(d.evaluateAll))
	if err != nil {
		return nil, err
	}
	if opts.Metrics != nil {
		sr.SetStageObserver(opts.Metrics.Observe)
	}
	d.searcher = sr
	return d, nil
}

// ProblemFP returns the fingerprint of the Designer's problem — the
// value stamped into checkpoints and verified on resume.
func (d *Designer) ProblemFP() uint64 { return d.problemFP }

// Population returns the current (not yet evaluated) candidate batch.
// The slice is owned by the searcher; treat it as read-only.
func (d *Designer) Population() []ga.Individual { return d.searcher.Population() }

// Strategy returns the search strategy's registered name ("ga", "beam"
// or "anneal") — the value stamped into journal records and
// checkpoints.
func (d *Designer) Strategy() string { return d.searcher.Strategy() }

// evaluateAll is the GA's fitness callback: it hands the generation to
// the evaluation backend chain (fitness memo cache over metrics over
// the leaf backend — see NewDesigner) and converts the PIPE score
// profiles to fitness, stashing the decomposition for curve recording.
// The generation's journal accounting goes into d.gen: evaluated, cache
// hits, eval wall and the rest from diffing the chain's Stats around
// the call, the window-table and delta counts from the engine's.
func (d *Designer) evaluateAll(seqs []seq.Sequence) []float64 {
	fits := make([]float64, len(seqs))
	d.evaluated = seqs
	d.details = make([]Detail, len(seqs))
	d.gen = obs.GenerationRecord{PopHash: PopulationHash(seqs), Population: len(seqs)}
	defer func() {
		min := 0.0
		for i, f := range fits {
			if i == 0 || f < min {
				min = f
			}
		}
		d.gen.MinFitness = min
	}()
	// Attach generation ancestry so batched preprocessing — the
	// in-process pool's, or a netcluster worker's — can build children
	// incrementally from their parents.
	// Hints are keyed by residue content, so middleware that reorders or
	// subsets the generation (the fitness cache) leaves them valid; an
	// empty map still announces generation-aware evaluation so the pool
	// retains this generation's queries as the next one's delta parents.
	// A crossover child's second parent rides beside them. Only fitness
	// is needed, so the call is target first: a candidate whose target
	// scores exactly 0 (fitness 0) may come back target-only.
	hints, second := d.searcher.ParentHints(seqs)
	ctx := cluster.WithTargetFirst(cluster.WithSecondParents(cluster.WithParentHints(d.runCtx, hints), second))
	wcPre := d.problem.Engine.WindowCacheStats()
	dqPre, _ := d.problem.Engine.DeltaStats()
	pre := d.backend.Stats()
	results, err := d.backend.EvaluateAll(ctx, seqs)
	post := d.backend.Stats()
	wcPost := d.problem.Engine.WindowCacheStats()
	dqPost, _ := d.problem.Engine.DeltaStats()
	d.gen.WinCacheHits = wcPost.Hits - wcPre.Hits
	d.gen.WinCacheMisses = wcPost.Misses - wcPre.Misses
	d.gen.DeltaQueries = dqPost - dqPre
	delta := post.Sub(pre)
	d.gen.Evaluated = int(delta[evalbackend.Tasks])
	d.gen.CacheHits = int(delta[evalbackend.CacheHits])
	d.gen.EvalWallMS = float64(delta[evalbackend.EvalWallNS]) / float64(time.Millisecond)
	if err == nil && len(results) != len(seqs) {
		err = fmt.Errorf("core: evaluation backend returned %d results for %d candidates", len(results), len(seqs))
	}
	if err != nil {
		if d.evalErr == nil {
			d.evalErr = err
		}
		d.opts.Logger.Error("evaluation backend failed", "err", err)
		return fits
	}
	// Co-target scores lead each result's non-target list (the wire
	// layout of Problem.WireNonTargets).
	co := len(d.problem.CoTargetIDs)
	for i, r := range results {
		if r.Err != nil {
			// The backend abandoned this task (e.g. netcluster quarantine
			// after MaxAttempts); score it as a dead end rather than
			// sinking the generation. Abandonment is not
			// deterministic, so the cache middleware never memoizes it.
			d.details[i] = Detail{}
			d.gen.AbandonedTasks++
			continue
		}
		if r.TargetOnly {
			d.details[i] = Detail{targetOnly: true}
			continue
		}
		if len(r.NonTargetScores) < co {
			// A backend built over the plain non-target list instead of
			// Problem.WireNonTargets: a layout error, not a score.
			d.evalErr = fmt.Errorf("core: result carries %d non-target scores, fewer than the %d co-targets",
				len(r.NonTargetScores), co)
			clear(fits)
			return fits
		}
		d.details[i] = d.detail(r.TargetScore, r.NonTargetScores)
		fits[i] = d.details[i].Fitness
	}
	if d.gen.AbandonedTasks > 0 {
		d.opts.Logger.Warn("evaluation tasks abandoned; scoring zero fitness",
			"abandoned", d.gen.AbandonedTasks, "candidates", len(seqs))
	}
	return fits
}

// detail decomposes one candidate's score profile; the co-target scores
// lead wire (the layout of Problem.WireNonTargets).
func (d *Designer) detail(target float64, wire []float64) Detail {
	co := len(d.problem.CoTargetIDs)
	nts := wire[co:]
	det := Detail{
		Target:       weakestLink(target, wire[:co]),
		MaxNonTarget: MaxScore(nts),
		AvgNonTarget: MeanScore(nts),
	}
	det.Fitness = Fitness(det.Target, nts)
	return det
}

// bestDetail returns the full Detail of the current generation's
// candidate i, rescoring it on the pool (cluster.Pool.Rescore) when its
// evaluation was target-only. PIPE is deterministic and every
// preprocessing path builds the same query, so the rescored Detail is
// bit for bit the one a full evaluation would have given.
func (d *Designer) bestDetail(i int) Detail {
	if d.details[i].targetOnly {
		r := d.pool.Rescore(d.evaluated[i])
		d.details[i] = d.detail(r.TargetScore, r.NonTargetScores)
	}
	return d.details[i]
}

// NaturalFragmentPopulation builds n chimeric sequences of the given
// length by splicing random fragments of natural proteome proteins —
// the warm-start initial population.
func NaturalFragmentPopulation(engine *pipe.Engine, rng *rand.Rand, n, length int) []seq.Sequence {
	ix := engine.Index()
	out := make([]seq.Sequence, n)
	for i := range out {
		var body []byte
		for len(body) < length {
			p := ix.Protein(rng.Intn(ix.NumProteins()))
			fragLen := length/3 + rng.Intn(length/3+1)
			if fragLen > p.Len() {
				fragLen = p.Len()
			}
			start := rng.Intn(p.Len() - fragLen + 1)
			body = append(body, p.Residues()[start:start+fragLen]...)
		}
		sq, err := seq.New(fmt.Sprintf("chimera%04d", i), string(body[:length]))
		if err != nil {
			// Natural residues are always valid; defensive only.
			panic(err)
		}
		out[i] = sq
	}
	return out
}

// PopulationHash is the FNV-64a hash (hex) of a population's residues in
// slot order — the per-generation determinism fingerprint written to the
// run journal. Two runs diverge exactly where their hashes first differ.
func PopulationHash(seqs []seq.Sequence) string {
	h := fnv.New64a()
	for _, s := range seqs {
		h.Write([]byte(s.Residues()))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Run executes the design loop to termination and returns the result.
func (d *Designer) Run() (Result, error) {
	return d.RunContext(context.Background())
}

// RunContext executes the design loop to termination or until ctx is
// cancelled, whichever comes first. Cancellation is observed between
// generations, so the run stops within one generation of cancel; the
// partial Result (curve and best-so-far of the completed generations) is
// returned alongside ctx's error, and — when a Journal is configured — a
// final checkpoint is written so the run can be resumed. A long-running
// service uses this hook, together with Options.OnGeneration, to report
// design-job progress and abort jobs promptly.
func (d *Designer) RunContext(ctx context.Context) (Result, error) {
	if d.used {
		return Result{}, fmt.Errorf("core: Designer is single-use")
	}
	d.used = true
	if d.opts.WarmStart {
		rng := rand.New(rand.NewSource(d.opts.GA.Seed))
		pop := NaturalFragmentPopulation(d.problem.Engine, rng,
			d.searcher.PopulationSize(), d.opts.GA.SeqLen)
		if err := d.searcher.SetPopulation(pop); err != nil {
			return Result{}, err
		}
	} else {
		d.searcher.InitPopulation()
	}
	return d.runLoop(ctx, nil, Detail{}, seq.Sequence{})
}

// Resume restarts a checkpointed run to termination.
func (d *Designer) Resume(cp obs.Checkpoint) (Result, error) {
	return d.ResumeContext(context.Background(), cp)
}

// ResumeContext restores the searcher from a checkpoint (population,
// generation counter, best-ever individual, learning-curve prefix and
// any strategy-private state blob) and continues the design loop.
// Because every construction draw derives from (Seed, generation,
// slot), the continued run — curve, best sequence, final population —
// is bit-identical to one that was never interrupted. The checkpoint
// must come from the same problem (fingerprint), seed, search strategy
// and population size the Designer was built with; in particular a
// checkpoint written under a different -strategy fails fast here rather
// than silently continuing under the configured one.
func (d *Designer) ResumeContext(ctx context.Context, cp obs.Checkpoint) (Result, error) {
	if d.used {
		return Result{}, fmt.Errorf("core: Designer is single-use")
	}
	if err := cp.Validate(); err != nil {
		return Result{}, err
	}
	if cp.ProblemFP != d.problemFP {
		return Result{}, fmt.Errorf("core: checkpoint is for problem %016x, designer solves %016x",
			cp.ProblemFP, d.problemFP)
	}
	if cp.GASeed != d.opts.GA.Seed {
		return Result{}, fmt.Errorf("core: checkpoint GA seed %d, designer uses %d", cp.GASeed, d.opts.GA.Seed)
	}
	// Pre-strategy checkpoints carry no tag and were always GA runs.
	cpStrategy := cp.Strategy
	if cpStrategy == "" {
		cpStrategy = search.StrategyGA
	}
	if cpStrategy != d.searcher.Strategy() {
		return Result{}, fmt.Errorf("core: checkpoint was written by strategy %q, designer runs %q",
			cpStrategy, d.searcher.Strategy())
	}
	if cp.PopulationSize != d.searcher.PopulationSize() {
		return Result{}, fmt.Errorf("core: checkpoint population %d, designer uses %d",
			cp.PopulationSize, d.searcher.PopulationSize())
	}
	d.used = true
	pop := make([]seq.Sequence, len(cp.Population))
	for i, sr := range cp.Population {
		s, err := seq.New(sr.Name, sr.Residues)
		if err != nil {
			return Result{}, fmt.Errorf("core: checkpoint population slot %d: %w", i, err)
		}
		pop[i] = s
	}
	var bestSeq seq.Sequence
	bestDetail := Detail{
		Fitness:      cp.BestFitness,
		Target:       cp.BestTarget,
		MaxNonTarget: cp.BestMaxNT,
		AvgNonTarget: cp.BestAvgNT,
	}
	if cp.BestEver.Residues != "" {
		s, err := seq.New(cp.BestEver.Name, cp.BestEver.Residues)
		if err != nil {
			return Result{}, fmt.Errorf("core: checkpoint best-ever sequence: %w", err)
		}
		bestSeq = s
	}
	if err := d.searcher.Restore(cp.Generation, pop,
		ga.Individual{Seq: bestSeq, Fitness: cp.BestFitness}, cp.BestEverGen, cp.SearchState); err != nil {
		return Result{}, err
	}
	curve := make([]CurvePoint, 0, len(cp.Curve))
	for _, cr := range cp.Curve {
		curve = append(curve, CurvePoint{Generation: cr.Generation, Detail: Detail{
			Fitness:      cr.Fitness,
			Target:       cr.Target,
			MaxNonTarget: cr.MaxNonTarget,
			AvgNonTarget: cr.AvgNonTarget,
		}})
	}
	d.opts.Logger.Info("run resumed", "generation", cp.Generation, "best_fitness", cp.BestFitness)
	return d.runLoop(ctx, curve, bestDetail, bestSeq)
}

// runLoop drives the GA from its current state (fresh or restored) to
// termination, recording the learning curve, appending journal records
// and writing periodic checkpoints.
func (d *Designer) runLoop(ctx context.Context, curve []CurvePoint, bestDetail Detail, bestSeq seq.Sequence) (Result, error) {
	d.runCtx = ctx
	term := d.opts.Termination
	if term.MaxGenerations <= 0 && term.StallGenerations <= 0 {
		term.MaxGenerations = 100
	}
	result := func() Result {
		return Result{
			Best:                bestSeq,
			BestDetail:          bestDetail,
			Curve:               curve,
			Generations:         len(curve),
			InvariantViolations: d.violations,
		}
	}
	endRun := d.opts.Logger.Span("run",
		"target", d.problem.TargetID, "non_targets", len(d.problem.NonTargetIDs),
		"strategy", d.searcher.Strategy(), "start_generation", d.searcher.Generation())
	for {
		if err := ctx.Err(); err != nil {
			// Make the interruption resumable: checkpoint the state the
			// completed generations produced.
			d.writeCheckpoint(curve, bestDetail)
			endRun("generations", len(curve), "cancelled", true)
			return result(), err
		}
		genStart := time.Now()
		st := d.searcher.Step()
		if d.evalErr != nil {
			// The evaluation backend failed (e.g. the distributed master
			// closed); return what the completed generations produced.
			d.writeCheckpoint(curve, bestDetail)
			endRun("generations", len(curve), "eval_err", d.evalErr.Error())
			return result(), d.evalErr
		}
		// Locate the generation's fittest individual's decomposition.
		bestIdx := 0
		for i, det := range d.details {
			if det.Fitness > d.details[bestIdx].Fitness {
				bestIdx = i
			}
		}
		cp := CurvePoint{Generation: st.Generation, Detail: d.bestDetail(bestIdx)}
		curve = append(curve, cp)
		if st.NewBestFound {
			bestDetail = cp.Detail
			bestSeq = st.BestEverSeq
		}
		if d.opts.OnGeneration != nil {
			d.opts.OnGeneration(cp)
		}
		stop := term.ShouldStop(st.Generation, st.BestEverGen)
		d.recordGeneration(st, cp, curve, bestDetail, time.Since(genStart), stop)
		if stop {
			endRun("generations", len(curve), "best_fitness", bestDetail.Fitness)
			return result(), nil
		}
	}
}

// recordGeneration emits the generation's journal record, observes the
// generation-scale histograms and writes a periodic checkpoint when due.
func (d *Designer) recordGeneration(st ga.Stats, cp CurvePoint, curve []CurvePoint, bestDetail Detail, genWall time.Duration, final bool) {
	d.opts.Metrics.Observe(obs.StageGeneration, genWall)
	d.gen.Generation = st.Generation
	checkErr := d.gen.CheckAccounting()
	if checkErr != nil {
		d.opts.Logger.Warn("generation breaks the conservation identity", "err", checkErr)
		d.violations++
	}
	if d.opts.Journal == nil && d.opts.OnJournalRecord == nil {
		return
	}
	rec := d.gen
	rec.TimeUnixMS = time.Now().UnixMilli()
	rec.Strategy = d.searcher.Strategy()
	rec.StrategyCounters = d.searcher.Counters()
	rec.BestFitness = st.Best
	rec.MeanFitness = st.Mean
	rec.Target = cp.Target
	rec.MaxNonTarget = cp.MaxNonTarget
	rec.AvgNonTarget = cp.AvgNonTarget
	rec.BestEverFitness = st.BestEver
	rec.NewBest = st.NewBestFound
	rec.GenWallMS = float64(genWall) / float64(time.Millisecond)
	// Checkpoint on cadence and always after the final generation, so a
	// finished run's directory holds its terminal state. The checkpoint is
	// staged, the generation's line appended, and only then the checkpoint
	// installed: a process killed in between resumes from the checkpoint
	// before and runs this generation again, never past a generation the
	// journal did not get.
	var install func(commit bool) error
	if d.opts.Journal != nil && (final || d.opts.Journal.ShouldCheckpoint(d.searcher.Generation())) {
		install = d.stageCheckpoint(curve, bestDetail)
		rec.Checkpointed = install != nil
	}
	if d.opts.OnJournalRecord != nil {
		d.opts.OnJournalRecord(&rec)
	}
	appended := true
	if d.opts.Journal != nil {
		switch err := d.opts.Journal.Append(rec); {
		case errors.Is(err, obs.ErrAccounting):
			// The record is in the journal. Unless the generation was
			// counted above, OnJournalRecord changed its accounting.
			if checkErr == nil {
				d.opts.Logger.Warn("journal record breaks the conservation identity", "err", err)
				d.violations++
			}
		case err != nil:
			d.opts.Logger.Warn("journal append failed", "err", err)
			appended = false
		}
	}
	if install != nil {
		if err := install(appended); err != nil {
			d.opts.Logger.Warn("checkpoint failed", "err", err)
		}
	}
	d.opts.Logger.Debug("generation",
		"gen", rec.Generation, "best", rec.BestFitness, "mean", rec.MeanFitness,
		"best_ever", rec.BestEverFitness, "evaluated", rec.Evaluated,
		"cache_hits", rec.CacheHits, "eval_ms", rec.EvalWallMS)
}

// writeCheckpoint stages a checkpoint and installs it at once, for the
// exits that append no journal line with it.
func (d *Designer) writeCheckpoint(curve []CurvePoint, bestDetail Detail) {
	if install := d.stageCheckpoint(curve, bestDetail); install != nil {
		if err := install(true); err != nil {
			d.opts.Logger.Warn("checkpoint failed", "err", err)
		}
	}
}

// stageCheckpoint snapshots the searcher state into a synced temp file
// beside the journal's checkpoint and returns what installs it
// (obs.RunJournal.StageCheckpoint), or nil when nothing was staged.
func (d *Designer) stageCheckpoint(curve []CurvePoint, bestDetail Detail) func(commit bool) error {
	if d.opts.Journal == nil || len(curve) == 0 {
		return nil
	}
	start := time.Now()
	state, err := d.searcher.State()
	if err != nil {
		d.opts.Logger.Warn("checkpoint failed: strategy state", "err", err)
		return nil
	}
	bestEver, bestGen := d.searcher.BestEver()
	cp := obs.Checkpoint{
		ProblemFP:      d.problemFP,
		GASeed:         d.opts.GA.Seed,
		Strategy:       d.searcher.Strategy(),
		SearchState:    state,
		PopulationSize: d.searcher.PopulationSize(),
		Generation:     d.searcher.Generation(),
		BestEverGen:    bestGen,
		BestFitness:    bestDetail.Fitness,
		BestTarget:     bestDetail.Target,
		BestMaxNT:      bestDetail.MaxNonTarget,
		BestAvgNT:      bestDetail.AvgNonTarget,
	}
	if bestEver.Seq.Len() > 0 {
		cp.BestEver = obs.SequenceRecord{Name: bestEver.Seq.Name(), Residues: bestEver.Seq.Residues()}
	}
	for _, ind := range d.searcher.Population() {
		cp.Population = append(cp.Population, obs.SequenceRecord{Name: ind.Seq.Name(), Residues: ind.Seq.Residues()})
	}
	for _, p := range curve {
		cp.Curve = append(cp.Curve, obs.CurveRecord{
			Generation:   p.Generation,
			Fitness:      p.Fitness,
			Target:       p.Target,
			MaxNonTarget: p.MaxNonTarget,
			AvgNonTarget: p.AvgNonTarget,
		})
	}
	install, err := d.opts.Journal.StageCheckpoint(cp)
	if err != nil {
		d.opts.Logger.Warn("checkpoint failed", "err", err)
		return nil
	}
	d.opts.Metrics.Observe(obs.StageCheckpoint, time.Since(start))
	return install
}

// Design is the one-call convenience API: evolve an inhibitor for
// targetID avoiding nonTargetIDs.
func Design(engine *pipe.Engine, targetID int, nonTargetIDs []int, opts Options) (Result, error) {
	d, err := NewDesigner(Problem{Engine: engine, TargetID: targetID, NonTargetIDs: nonTargetIDs}, opts)
	if err != nil {
		return Result{}, err
	}
	return d.Run()
}
