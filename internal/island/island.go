// Package island implements the paper's multi-rack scaling plan (Section
// 3.2): "To scale to multiple racks, we would set one master process per
// rack and sync between masters after each round of the genetic
// algorithm. Since each master's state information is small and the
// number of racks would also be relatively small (less than 100), the
// synchronization overhead would be small."
//
// Each rack becomes an island: an ordinary core.Designer with its own
// derived seed and its own evaluation backend — an in-process pool by
// default, or (Config.Backends) one netcluster master per rack for a
// genuinely distributed run. The island model adds one thing to K
// Designers: a ring exchange inside every searcher Step. After each
// generation the islands meet at a barrier; every SyncInterval
// generations each island there replaces the last Migrants slots of its
// next batch with the best Migrants individuals of its ring
// predecessor. Periodic migration preserves diversity between syncs
// while still spreading good solutions — the standard island-model
// trade-off the paper's sketch implies.
//
// Because the exchange happens inside Step, everything the Designer does
// after a Step — journal accounting, checkpoints, parent hints — sees
// the migrated batch, so island runs journal, checkpoint and resume like
// single-designer runs, and per-island trajectories (Result.Curves) are
// bit-identical across backends, cache configurations and resume seams.
package island

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/evalbackend"
	"repro/internal/ga"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/seq"
)

// Config shapes the ring; everything else about the run (GA parameters,
// pool sizing, generation budget, shared fitness cache, logger, metrics)
// rides the core.Options handed to Run.
type Config struct {
	// Islands is the number of racks/masters. Default 4.
	Islands int
	// SyncInterval is the number of generations between master syncs.
	// The paper syncs "after each round"; 1 reproduces that. Default 1.
	SyncInterval int
	// Migrants is how many of an island's best individuals are broadcast
	// at each sync. Default 2.
	Migrants int
	// Backends, if non-nil, supplies one evaluation backend per island
	// (len must equal Islands) in place of Options.Backend — e.g. an
	// evalbackend.MasterBackend per rack for the paper's distributed
	// configuration. Each backend must be a distinct instance: islands
	// evaluate concurrently, and e.g. a netcluster.Master serializes
	// rounds. Run does NOT close caller-supplied backends.
	Backends []evalbackend.Backend
	// Journals, if non-nil, supplies one RunJournal per island in place
	// of Options.Journal (len must equal Islands; entries may be nil to
	// skip an island). Each island appends a GenerationRecord per
	// generation and checkpoints on its journal's cadence; Resume restarts
	// from those checkpoints. Run does not close the journals.
	Journals []*obs.RunJournal
	// OnGeneration, if non-nil, observes each completed generation
	// barrier with every island's best fitness of that generation —
	// the per-island learning curves as they form.
	OnGeneration func(gen int, perIslandBest []float64)
}

func (c Config) withDefaults() Config {
	if c.Islands == 0 {
		c.Islands = 4
	}
	if c.SyncInterval == 0 {
		c.SyncInterval = 1
	}
	if c.Migrants == 0 {
		c.Migrants = 2
	}
	return c
}

func (c Config) validate(opts core.Options) error {
	if c.Islands < 2 {
		return fmt.Errorf("island: need at least 2 islands, got %d", c.Islands)
	}
	if c.SyncInterval < 0 || c.Migrants < 0 || opts.Termination.MaxGenerations < 0 {
		return fmt.Errorf("island: negative sync interval %d, migrants %d or generations %d",
			c.SyncInterval, c.Migrants, opts.Termination.MaxGenerations)
	}
	if c.Migrants >= opts.GA.PopulationSize {
		return fmt.Errorf("island: %d migrants exceed population %d",
			c.Migrants, opts.GA.PopulationSize)
	}
	if c.Backends != nil && len(c.Backends) != c.Islands {
		return fmt.Errorf("island: %d backends for %d islands", len(c.Backends), c.Islands)
	}
	if c.Journals != nil && len(c.Journals) != c.Islands {
		return fmt.Errorf("island: %d journals for %d islands", len(c.Journals), c.Islands)
	}
	return nil
}

// Result is the outcome of a multi-island run.
type Result struct {
	// Best is the fittest individual across all islands.
	Best ga.Individual
	// BestIsland is the island that produced it.
	BestIsland int
	// PerIsland holds each island's best-ever fitness.
	PerIsland []float64
	// Curves[k][g] is island k's best fitness of generation g — the
	// per-island learning trajectories. Deterministic for a given seed
	// regardless of backend (in-process pool or netcluster).
	Curves [][]float64
	// Generations executed per island.
	Generations int
	// Migrations performed (sync rounds).
	Migrations int
}

// Run executes the island-model design: the same problem on every
// island, each a core.Designer built from opts with its own derived seed
// (opts.GA.Seed seeds island 0; island k uses Seed + k*7919) and, unless
// opts supplies or disables one, a fitness cache shared by all islands
// (scores are deterministic, so migrants arrive pre-scored). Every island
// runs exactly opts.Termination.MaxGenerations generations (default 50);
// stall criteria would stop islands at different generations and are
// ignored. Options callbacks fire from every island's goroutine.
//
// Islands run in parallel. ctx is sampled at every generation barrier,
// so a cancelled run stops with every island at the same generation —
// checkpointed there when journaled, ready for Resume — and returns the
// partial Result alongside ctx's error. An island whose run fails
// releases the barrier and Run returns that island's error.
func Run(ctx context.Context, problem core.Problem, opts core.Options, cfg Config) (Result, error) {
	return run(ctx, problem, opts, cfg, nil)
}

// Resume continues an interrupted journaled run from one checkpoint per
// island. Given the problem, opts and cfg of the interrupted run, the
// continuation is bit-identical to a run that was never interrupted. The
// checkpoints must stand at one common generation, as a cancelled Run
// leaves them.
func Resume(ctx context.Context, problem core.Problem, opts core.Options, cfg Config, checkpoints []obs.Checkpoint) (Result, error) {
	if n := cfg.withDefaults().Islands; len(checkpoints) != n {
		return Result{}, fmt.Errorf("island: %d checkpoints for %d islands", len(checkpoints), n)
	}
	for k, cp := range checkpoints {
		if cp.Generation != checkpoints[0].Generation {
			return Result{}, fmt.Errorf("island: island %d is checkpointed at generation %d, island 0 at %d",
				k, cp.Generation, checkpoints[0].Generation)
		}
	}
	return run(ctx, problem, opts, cfg, checkpoints)
}

func run(ctx context.Context, problem core.Problem, opts core.Options, cfg Config, checkpoints []obs.Checkpoint) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(opts); err != nil {
		return Result{}, err
	}
	total := opts.Termination.MaxGenerations
	if total == 0 {
		total = 50
	}
	opts.Termination = ga.Termination{MaxGenerations: total}
	if opts.FitnessCache == nil && !opts.DisableFitnessCache {
		opts.FitnessCache = core.NewFitnessCache(0)
	}

	// The Designers run under a context the ring controls instead of ctx
	// itself: a caller's cancel is agreed on at a barrier (halt), a
	// failed island ends every run at once (abort).
	abortCtx, abort := context.WithCancel(context.WithoutCancel(ctx))
	defer abort()
	runCtx, halt := context.WithCancel(abortCtx)
	defer halt()
	r := &ring{cfg: cfg, total: total, ctx: ctx, abortCtx: abortCtx, abort: abort, halt: halt,
		round: newRound(cfg.Islands)}
	designers := make([]*core.Designer, cfg.Islands)
	for k := range designers {
		o := opts
		o.GA.Seed = opts.GA.Seed + int64(k)*7919
		if cfg.Backends != nil {
			o.Backend = cfg.Backends[k]
		}
		if cfg.Journals != nil {
			o.Journal = cfg.Journals[k]
		}
		o.Search.Decorate = r.decorator(k)
		d, err := core.NewDesigner(problem, o)
		if err != nil {
			return Result{}, err
		}
		designers[k] = d
	}

	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	endRun := opts.Logger.Span("island run",
		"islands", cfg.Islands, "generations", total,
		"sync_interval", cfg.SyncInterval, "migrants", cfg.Migrants)
	// Islands are independent between syncs: run them in parallel,
	// mirroring one master per rack. The shared cache, registry and
	// logger are concurrency-safe.
	results := make([]core.Result, cfg.Islands)
	var wg sync.WaitGroup
	for k, d := range designers {
		wg.Add(1)
		go func(k int, d *core.Designer) {
			defer wg.Done()
			var err error
			if checkpoints != nil {
				results[k], err = d.ResumeContext(runCtx, checkpoints[k])
			} else {
				results[k], err = d.RunContext(runCtx)
			}
			if err != nil {
				r.fail(k, err)
			}
		}(k, d)
	}
	wg.Wait()

	res := Result{
		PerIsland:   make([]float64, cfg.Islands),
		Curves:      make([][]float64, cfg.Islands),
		Generations: results[0].Generations,
	}
	for k, ir := range results {
		res.PerIsland[k] = ir.BestDetail.Fitness
		if ir.BestDetail.Fitness > res.Best.Fitness || res.Best.Seq.Len() == 0 {
			res.Best = ga.Individual{Seq: ir.Best, Fitness: ir.BestDetail.Fitness}
			res.BestIsland = k
		}
		for _, cp := range ir.Curve {
			res.Curves[k] = append(res.Curves[k], cp.Fitness)
		}
		res.Generations = min(res.Generations, ir.Generations)
	}
	// A sync follows every SyncInterval-th generation except the last.
	res.Migrations = min(res.Generations, total-1) / cfg.SyncInterval
	err := r.err
	if err == nil && r.stopped {
		err = ctx.Err()
	}
	endRun("generations", res.Generations, "migrations", res.Migrations,
		"best_fitness", res.Best.Fitness, "cancelled", err != nil)
	return res, err
}

// ring is the masters' sync point: a reusable barrier every island
// arrives at once per generation, carrying the emigrants of sync
// generations to each island's ring successor.
type ring struct {
	cfg      Config
	total    int                // generations per island; no sync follows the last
	ctx      context.Context    // the caller's context, sampled once per barrier
	abortCtx context.Context    // done once an island has failed
	abort    context.CancelFunc // cancels abortCtx and, under it, the islands' runs
	halt     context.CancelFunc // ends the islands' runs after the current generation

	mu      sync.Mutex
	arrived int
	round   *round // the generation islands are currently arriving for
	stopped bool   // a barrier saw ctx cancelled and halted the islands
	err     error  // first island failure
}

// round is one generation's barrier state. Islands write only their own
// slots, before the last arrival closes done, and read after.
type round struct {
	emigrants [][]seq.Sequence // per island; nil outside sync generations
	best      []float64        // per island: best fitness of the generation
	done      chan struct{}
}

func newRound(islands int) *round {
	return &round{
		emigrants: make([][]seq.Sequence, islands),
		best:      make([]float64, islands),
		done:      make(chan struct{}),
	}
}

// arrive blocks island k until every island has evaluated the generation
// and returns the completed round, or nil when an island failed
// meanwhile. The last island to arrive reports the generation and
// decides, for all of them, whether the caller has cancelled — so every
// island stops (and checkpoints) after the same generation.
func (r *ring) arrive(k int, st ga.Stats, emigrants []seq.Sequence) *round {
	r.mu.Lock()
	rd := r.round
	rd.emigrants[k], rd.best[k] = emigrants, st.Best
	r.arrived++
	last := r.arrived == r.cfg.Islands
	if last {
		r.arrived, r.round = 0, newRound(r.cfg.Islands)
	}
	r.mu.Unlock()
	if last {
		// Every other island is parked on rd.done, so the callback runs
		// outside the lock with the round to itself.
		if r.cfg.OnGeneration != nil {
			r.cfg.OnGeneration(st.Generation, rd.best)
		}
		if st.Generation+1 < r.total && r.ctx.Err() != nil {
			r.mu.Lock()
			r.stopped = true
			r.mu.Unlock()
			r.halt()
		}
		close(rd.done)
	}
	select {
	case <-rd.done:
		return rd
	case <-r.abortCtx.Done():
		return nil
	}
}

// fail records island k's failure and releases every island: those at
// the barrier return from it, those evaluating see their context end.
// The context.Canceled an island returns from an agreed stop is not a
// failure.
func (r *ring) fail(k int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped && errors.Is(err, context.Canceled) {
		return
	}
	if r.err == nil {
		r.err = fmt.Errorf("island %d: %w", k, err)
	}
	r.abort()
}

// migrant is island k's searcher: the configured strategy with the ring
// exchange appended to every Step.
type migrant struct {
	search.Searcher
	ring *ring
	k    int
	// The batch the current Step evaluated, from the evaluator callback.
	seqs []seq.Sequence
	fits []float64
}

// decorator returns the search.Config.Decorate hook that builds island
// k's migrant around the configured strategy.
func (r *ring) decorator(k int) func(ga.Evaluator, func(ga.Evaluator) (search.Searcher, error)) (search.Searcher, error) {
	return func(eval ga.Evaluator, build func(ga.Evaluator) (search.Searcher, error)) (search.Searcher, error) {
		m := &migrant{ring: r, k: k}
		inner, err := build(ga.EvaluatorFunc(func(seqs []seq.Sequence) []float64 {
			m.seqs, m.fits = seqs, eval.EvaluateAll(seqs)
			return m.fits
		}))
		m.Searcher = inner
		return m, err
	}
}

// Step runs the strategy's step, then the master sync: wait for every
// island to finish the generation and, on sync generations, inject the
// ring predecessor's best individuals into the next (not yet evaluated)
// batch in place of its final slots. The next Step evaluates immigrants
// alongside the natives, exactly as if the local strategy had produced
// them.
func (m *migrant) Step() ga.Stats {
	st := m.Searcher.Step()
	r := m.ring
	syncing := (st.Generation+1)%r.cfg.SyncInterval == 0 && st.Generation+1 < r.total
	var emigrants []seq.Sequence
	if syncing {
		emigrants = m.best(r.cfg.Migrants)
	}
	rd := r.arrive(m.k, st, emigrants)
	if rd == nil || !syncing {
		return st
	}
	pop := m.Population()
	next := make([]seq.Sequence, len(pop))
	for i := range pop {
		next[i] = pop[i].Seq
	}
	n := r.cfg.Islands
	copy(next[len(next)-r.cfg.Migrants:], rd.emigrants[(m.k-1+n)%n])
	if err := m.SetPopulation(next); err != nil {
		r.fail(m.k, err)
	}
	return st
}

// best returns the n fittest sequences of the batch this Step evaluated,
// fittest first, ties in slot order.
func (m *migrant) best(n int) []seq.Sequence {
	order := make([]int, len(m.seqs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return m.fits[order[a]] > m.fits[order[b]] })
	out := make([]seq.Sequence, n)
	for i := range out {
		out[i] = m.seqs[order[i]]
	}
	return out
}
