// Package search factors InSiPS' generation loop behind a pluggable
// Searcher interface: propose a batch of candidate sequences, have the
// core Designer evaluate them through its evalbackend chain, then
// select the survivors that seed the next batch. The original genetic
// algorithm (package ga) is the first Searcher — a thin adapter with a
// bit-identical trajectory — and two more strategies ship on the same
// seam:
//
//   - beam: reward-guided beam search over the PIPE kernel
//     (ProtInvTree-style, with elite re-expansion);
//   - anneal: simulated annealing over independent Metropolis chains
//     with a geometric temperature schedule.
//
// Every strategy shares the Designer's machinery: the evaluation
// backend stack (fitness cache, netcluster), the run journal, and
// checkpoint/resume. Determinism follows the ga
// package's discipline: every random draw derives from (Seed,
// generation, slot), so strategies keep no cross-generation RNG state
// and a checkpointed batch resumes bit-identically. Strategy-private
// state that must survive a restart (annealing chains) rides the
// checkpoint as an opaque State() blob.
package search

import (
	"fmt"
	"math/rand"

	"repro/internal/ga"
	"repro/internal/obs"
	"repro/internal/seq"
)

// Strategy names, as spelled in -strategy flags, job specs, journal
// records and checkpoints.
const (
	StrategyGA     = "ga"
	StrategyBeam   = "beam"
	StrategyAnneal = "anneal"
)

// Strategies lists the registered strategy names in presentation order.
func Strategies() []string {
	return []string{StrategyGA, StrategyBeam, StrategyAnneal}
}

// Config selects and tunes a search strategy. The zero value is the
// genetic algorithm, keeping every pre-existing caller bit-identical.
type Config struct {
	// Strategy is one of Strategies(); empty means StrategyGA.
	Strategy string
	Beam     BeamConfig
	Anneal   AnnealConfig
	// Decorate, if non-nil, builds the Searcher New returns around the
	// configured strategy: it receives the evaluation callback and a
	// constructor for the strategy, so it can observe each evaluated
	// batch as well as wrap the searcher. An internal seam, not a user
	// knob: internal/island's migrating searcher is its caller.
	Decorate func(eval ga.Evaluator, build func(ga.Evaluator) (Searcher, error)) (Searcher, error)
}

// Name returns the configured strategy name with the empty-string
// default resolved to "ga".
func (c Config) Name() string {
	if c.Strategy == "" {
		return StrategyGA
	}
	return c.Strategy
}

// Validate reports whether the selected strategy's knobs (with package
// defaults applied) are usable, without constructing a Searcher — the
// fail-fast check for API request validation.
func (c Config) Validate() error {
	switch c.Name() {
	case StrategyGA:
		return nil
	case StrategyBeam:
		return c.Beam.withDefaults().validate()
	case StrategyAnneal:
		return c.Anneal.withDefaults().validate()
	default:
		return fmt.Errorf("search: unknown strategy %q (have %v)", c.Strategy, Strategies())
	}
}

// Searcher is one search strategy driving the design loop. The core
// Designer owns the loop: it calls Step once per generation, and Step
// calls back into the supplied ga.Evaluator exactly once with the
// strategy's current candidate batch. Implementations are not safe for
// concurrent use, mirroring ga.Engine.
type Searcher interface {
	// Strategy returns the strategy's registered name. It is stamped
	// into journal records and checkpoints; resume fails fast when a
	// checkpoint's strategy tag does not match the configured one.
	Strategy() string

	// PopulationSize is the fixed number of candidates submitted per
	// Step — the checkpoint's population size and the right-hand side
	// of the journal's candidate conservation law.
	PopulationSize() int

	// Generation returns the number of completed (evaluated) steps.
	Generation() int

	// Population returns the current, not-yet-evaluated candidate
	// batch. The slice is owned by the searcher; treat it as read-only.
	Population() []ga.Individual

	// BestEver returns the best individual observed so far and the
	// generation it appeared in.
	BestEver() (ga.Individual, int)

	// InitPopulation creates the strategy's initial candidate batch
	// deterministically from the seed.
	InitPopulation()

	// SetPopulation replaces the current batch (warm start, resume).
	// The batch length must equal PopulationSize.
	SetPopulation(seqs []seq.Sequence) error

	// ParentHints maps a candidate's residues to the residues of the
	// retained parent it was derived from, enabling the evaluation
	// pool's incremental (delta) preprocessing. hints must be non-nil
	// for the current batch — an empty map still announces
	// generation-aware evaluation — keyed consistently with seqs.
	// second names the other parent of candidates bred from two (a
	// crossover's tail donor); nil when the strategy breeds from one.
	ParentHints(seqs []seq.Sequence) (hints, second map[string]string)

	// Step evaluates the current batch via the evaluator the searcher
	// was constructed with, selects survivors, builds the next batch
	// and returns the evaluated batch's statistics.
	Step() ga.Stats

	// Counters reports the strategy's per-generation journal counters
	// for the step most recently completed. The GA returns the zero
	// value.
	Counters() obs.StrategyCounters

	// State serializes strategy-private state that the candidate batch
	// alone cannot reconstruct (annealing chains).
	// Strategies whose batch is self-describing return (nil, nil).
	State() ([]byte, error)

	// Restore rewinds the searcher to a checkpointed state: generation
	// completed steps, the unevaluated batch they produced, the
	// best-ever individual, and the State() blob captured alongside.
	Restore(generation int, pop []seq.Sequence, bestEver ga.Individual, bestGen int, state []byte) error

	// SetStageObserver installs (or removes, with nil) the per-stage
	// timing callback feeding the obs histograms.
	SetStageObserver(fn ga.StageObserver)
}

// New builds the configured Searcher over the shared GA parameters
// (population/batch sizing, sequence length, composition, seed) and the
// evaluation callback. An unknown strategy name fails fast.
func New(cfg Config, params ga.Params, eval ga.Evaluator) (Searcher, error) {
	if eval == nil {
		return nil, fmt.Errorf("search: nil evaluator")
	}
	if decorate := cfg.Decorate; decorate != nil {
		cfg.Decorate = nil
		return decorate(eval, func(e ga.Evaluator) (Searcher, error) { return New(cfg, params, e) })
	}
	switch cfg.Name() {
	case StrategyGA:
		return NewGA(params, eval)
	case StrategyBeam:
		return NewBeam(cfg.Beam, params, eval)
	case StrategyAnneal:
		return NewAnneal(cfg.Anneal, params, eval)
	default:
		return nil, fmt.Errorf("search: unknown strategy %q (have %v)", cfg.Strategy, Strategies())
	}
}

// slotRNG reseeds the searcher's one generator to the deterministic
// random stream of one construction slot of one generation, salted by a
// stream tag so distinct decision kinds (move proposal vs. Metropolis
// acceptance) within the same slot stay decorrelated. The
// stream is the one rand.New(rand.NewSource(ga.SlotSeed(...))) yields
// and is valid until the next call: no call site holds two at once.
func slotRNG(rng *rand.Rand, seed int64, gen, slot int, stream uint64) *rand.Rand {
	rng.Seed(ga.SlotSeed(seed, gen, slot, stream))
	return rng
}

// batchSeqs extracts the residue sequences of a candidate batch.
func batchSeqs(pop []ga.Individual) []seq.Sequence {
	out := make([]seq.Sequence, len(pop))
	for i := range pop {
		out[i] = pop[i].Seq
	}
	return out
}

// batchStats computes the shared per-step statistics (best, mean,
// best-ever bookkeeping) from an evaluated batch, mirroring
// ga.Engine.Step's semantics exactly.
func batchStats(gen int, pop []ga.Individual, bestEver *ga.Individual, bestGen *int) ga.Stats {
	total := 0.0
	best := 0
	for i := range pop {
		total += pop[i].Fitness
		if pop[i].Fitness > pop[best].Fitness {
			best = i
		}
	}
	st := ga.Stats{
		Generation: gen,
		Best:       pop[best].Fitness,
		Mean:       total / float64(len(pop)),
	}
	if pop[best].Fitness > bestEver.Fitness || bestEver.Seq.Len() == 0 {
		*bestEver = pop[best]
		*bestGen = gen
		st.NewBestFound = true
	}
	st.BestEver = bestEver.Fitness
	st.BestEverSeq = bestEver.Seq
	st.BestEverGen = *bestGen
	return st
}
