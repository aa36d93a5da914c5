// Package ga implements the genetic algorithm at the heart of InSiPS
// (paper Section 2.1, Figure 1): a population of candidate protein
// sequences evolves under fitness-proportional selection and the three
// operations copy, mutate and crossover, chosen with user-set
// probabilities p_copy, p_mutate and p_crossover (summing to 1). Mutation
// flips each residue independently with probability p_mutate_aa;
// crossover cuts two parents at a shared random point away from the ends
// and swaps tails.
//
// Construction of each generation is deterministic in (Seed, generation,
// slot): every slot of the next generation draws from its own derived
// random stream, so results are reproducible regardless of how many
// goroutines build the generation — the property the paper's seeded
// parameter study (Section 4.1) depends on.
package ga

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/seq"
)

// Params configures a run. Probabilities must be non-negative and
// p_copy + p_mutate + p_crossover must sum to 1 (paper Section 4.1).
type Params struct {
	PopulationSize int
	PCopy          float64
	PMutate        float64
	PCrossover     float64
	// PMutateAA is the per-residue mutation probability used by the
	// mutate operation (the paper fixes 0.05).
	PMutateAA float64
	// SeqLen is the length of random initial candidate sequences.
	SeqLen int
	// CrossoverMargin keeps cut points at least this many residues from
	// either end ("not too close to either end"). Default 10.
	CrossoverMargin int
	// Composition biases random sequence generation and mutation draws.
	// Zero value means the yeast proteome composition.
	Composition seq.Composition
	// Seed drives all stochastic choices.
	Seed int64
}

// DefaultParams returns the paper's production parameters (Section 4.2):
// p_crossover=0.5, p_mutate=0.4, p_copy=0.1, p_mutate_aa=0.05,
// population 1000.
func DefaultParams() Params {
	return Params{
		PopulationSize:  1000,
		PCopy:           0.1,
		PMutate:         0.4,
		PCrossover:      0.5,
		PMutateAA:       0.05,
		SeqLen:          150,
		CrossoverMargin: 10,
		Composition:     seq.YeastComposition(),
		Seed:            1,
	}
}

func (p Params) validate() error {
	if p.PopulationSize < 2 {
		return fmt.Errorf("ga: population size %d too small", p.PopulationSize)
	}
	if p.PCopy < 0 || p.PMutate < 0 || p.PCrossover < 0 {
		return fmt.Errorf("ga: negative operation probability")
	}
	sum := p.PCopy + p.PMutate + p.PCrossover
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("ga: operation probabilities sum to %f, want 1", sum)
	}
	if p.PMutateAA < 0 || p.PMutateAA > 1 {
		return fmt.Errorf("ga: p_mutate_aa %f out of [0,1]", p.PMutateAA)
	}
	if p.SeqLen < 2*p.CrossoverMargin+2 {
		return fmt.Errorf("ga: sequence length %d too short for crossover margin %d",
			p.SeqLen, p.CrossoverMargin)
	}
	return nil
}

// Individual is one candidate solution with its assigned fitness.
type Individual struct {
	Seq     seq.Sequence
	Fitness float64
}

// Op identifies the genetic operation that produced an individual.
type Op uint8

const (
	OpInit      Op = iota // initial/supplied population; no recorded parent
	OpCopy                // verbatim copy of one parent
	OpMutate              // per-residue point mutation of one parent
	OpCrossover           // tail exchange between two parents
)

// Provenance records how one slot of the current population was
// constructed: the operation and the slot indices, in the previous
// (just evaluated) generation, of its parents. ParentB is -1 except for
// crossover. For crossover children ParentA is the primary parent (the
// one contributing the child's prefix), which batched evaluation uses
// as the base of incremental (delta) preprocessing.
type Provenance struct {
	Op      Op
	ParentA int
	ParentB int
}

// Evaluator assigns a fitness in [0,1] to every sequence of a generation.
// Implementations parallelize internally (the master/worker engine in
// package cluster is one).
type Evaluator interface {
	EvaluateAll(seqs []seq.Sequence) []float64
}

// EvaluatorFunc adapts a function to the Evaluator interface.
type EvaluatorFunc func(seqs []seq.Sequence) []float64

// EvaluateAll calls f.
func (f EvaluatorFunc) EvaluateAll(seqs []seq.Sequence) []float64 { return f(seqs) }

// Stats summarizes one evaluated generation.
type Stats struct {
	Generation   int
	Best         float64 // best fitness in this generation
	Mean         float64
	BestEver     float64 // best fitness seen in any generation so far
	BestEverSeq  seq.Sequence
	BestEverGen  int // generation where the best-ever individual appeared
	NewBestFound bool
}

// StageObserver receives the per-generation accumulated wall time of
// one named GA stage ("ga_copy", "ga_mutate", "ga_crossover"); the
// observability layer (internal/obs) feeds these into timing
// histograms. Observers must be cheap: they run on the GA's hot path.
type StageObserver func(stage string, elapsed time.Duration)

// Engine runs the genetic algorithm. It is not safe for concurrent use.
type Engine struct {
	params        Params
	eval          Evaluator
	sampler       *seq.Sampler
	rng           *rand.Rand // reseeded per construction slot (slotRNG)
	pop           []Individual
	prov          []Provenance // how each pop slot was built; nil when unknown
	lastEvaluated []Individual
	generation    int
	bestEver      Individual
	bestGen       int
	observe       StageObserver
}

// New validates params and creates an engine with an empty population.
func New(params Params, eval Evaluator) (*Engine, error) {
	if params.CrossoverMargin == 0 {
		params.CrossoverMargin = 10
	}
	var zero seq.Composition
	if params.Composition == zero {
		params.Composition = seq.YeastComposition()
	}
	if err := params.validate(); err != nil {
		return nil, err
	}
	if eval == nil {
		return nil, fmt.Errorf("ga: nil evaluator")
	}
	return &Engine{
		params:  params,
		eval:    eval,
		sampler: seq.NewSampler(params.Composition),
		rng:     NewSlotRand(),
	}, nil
}

// Params returns the engine's validated parameters.
func (e *Engine) Params() Params { return e.params }

// Generation returns the number of completed generations.
func (e *Engine) Generation() int { return e.generation }

// Population returns the current (not yet evaluated) individuals. The
// slice is owned by the engine; treat it as read-only.
func (e *Engine) Population() []Individual { return e.pop }

// LastEvaluated returns the most recently evaluated generation with its
// fitness values (nil before the first Step). The slice is owned by the
// engine; treat it as read-only.
func (e *Engine) LastEvaluated() []Individual { return e.lastEvaluated }

// BestEver returns the best individual observed so far and the generation
// it appeared in.
func (e *Engine) BestEver() (Individual, int) { return e.bestEver, e.bestGen }

// Provenance returns how each slot of the current population was
// constructed, with parent indices referring to LastEvaluated. It is
// nil when ancestry is unknown (initial, supplied, or restored
// populations). The slice is owned by the engine; treat it as
// read-only.
func (e *Engine) Provenance() []Provenance { return e.prov }

// slotSeed is the GA's slot seed: SlotSeed's stream 0.
func slotSeed(seed int64, gen, slot int) int64 { return SlotSeed(seed, gen, slot, 0) }

// slotRNG returns the deterministic random stream for one construction
// slot: the engine's one generator, reseeded. Seeding determines the
// whole source state from the seed alone, so the stream is the one a
// new rand.New(rand.NewSource(slotSeed(...))) yields, without
// allocating or refilling a 4.9 KB source per slot. The stream is valid
// until the next call.
func (e *Engine) slotRNG(gen, slot int) *rand.Rand {
	e.rng.Seed(slotSeed(e.params.Seed, gen, slot))
	return e.rng
}

// InitPopulation creates the initial random population (generation 0 is
// not yet evaluated). Sequences may also be supplied with SetPopulation.
func (e *Engine) InitPopulation() {
	e.pop = make([]Individual, e.params.PopulationSize)
	for i := range e.pop {
		rng := e.slotRNG(0, i)
		e.pop[i] = Individual{
			Seq: seq.RandomFrom(rng, fmt.Sprintf("g0s%04d", i), e.params.SeqLen, e.sampler),
		}
	}
	e.prov = nil
	e.generation = 0
}

// SetPopulation replaces the current population with the given sequences
// ("any set of protein sequences can be used as a starting population").
func (e *Engine) SetPopulation(seqs []seq.Sequence) error {
	if len(seqs) != e.params.PopulationSize {
		return fmt.Errorf("ga: got %d sequences, population size is %d",
			len(seqs), e.params.PopulationSize)
	}
	e.pop = make([]Individual, len(seqs))
	for i, s := range seqs {
		e.pop[i] = Individual{Seq: s}
	}
	e.prov = nil
	return nil
}

// SetStageObserver installs (or, with nil, removes) the per-stage
// timing callback.
func (e *Engine) SetStageObserver(fn StageObserver) { e.observe = fn }

// Restore rewinds the engine to a checkpointed state: generation
// completed generations, the not-yet-evaluated population they
// produced, and the best-ever individual with the generation it
// appeared in. Because every construction draw derives from (Seed,
// generation, slot) — the engine keeps no cross-generation RNG state —
// subsequent Steps are bit-identical to a run that was never
// interrupted.
func (e *Engine) Restore(generation int, seqs []seq.Sequence, bestEver Individual, bestGen int) error {
	if generation <= 0 {
		return fmt.Errorf("ga: cannot restore to generation %d (nothing completed)", generation)
	}
	if bestGen < 0 || bestGen >= generation {
		// bestGen refers to a completed generation (0-based < generation).
		return fmt.Errorf("ga: best-ever generation %d outside completed range [0,%d)", bestGen, generation)
	}
	if err := e.SetPopulation(seqs); err != nil {
		return err
	}
	e.generation = generation
	e.bestEver = bestEver
	e.bestGen = bestGen
	e.lastEvaluated = nil
	return nil
}

// Step evaluates the current generation and constructs the next one,
// returning statistics for the evaluated generation.
func (e *Engine) Step() Stats {
	if e.pop == nil {
		e.InitPopulation()
	}
	seqs := make([]seq.Sequence, len(e.pop))
	for i := range e.pop {
		seqs[i] = e.pop[i].Seq
	}
	fits := e.eval.EvaluateAll(seqs)
	total := 0.0
	best := 0
	for i := range e.pop {
		e.pop[i].Fitness = fits[i]
		total += fits[i]
		if fits[i] > fits[best] {
			best = i
		}
	}
	st := Stats{
		Generation: e.generation,
		Best:       e.pop[best].Fitness,
		Mean:       total / float64(len(e.pop)),
	}
	if e.pop[best].Fitness > e.bestEver.Fitness || e.bestEver.Seq.Len() == 0 {
		e.bestEver = e.pop[best]
		e.bestGen = e.generation
		st.NewBestFound = true
	}
	st.BestEver = e.bestEver.Fitness
	st.BestEverSeq = e.bestEver.Seq
	st.BestEverGen = e.bestGen

	e.lastEvaluated = append(e.lastEvaluated[:0], e.pop...)
	e.pop, e.prov = e.nextGeneration()
	e.generation++
	return st
}

// nextGeneration builds the next population using fitness-proportional
// selection and the three operations. Each slot's randomness comes from
// its own derived stream, so the result does not depend on evaluation
// order or thread count. When a stage observer is installed, the time
// spent in each operator is accumulated across the generation and
// reported once per stage.
func (e *Engine) nextGeneration() ([]Individual, []Provenance) {
	cum := make([]float64, len(e.pop))
	total := 0.0
	for i := range e.pop {
		total += e.pop[i].Fitness
		cum[i] = total
	}
	gen := e.generation + 1
	next := make([]Individual, 0, e.params.PopulationSize)
	prov := make([]Provenance, 0, e.params.PopulationSize)
	var copyDur, mutateDur, crossDur time.Duration
	for slot := 0; len(next) < e.params.PopulationSize; slot++ {
		rng := e.slotRNG(gen, slot)
		op := rng.Float64()
		var begin time.Time
		if e.observe != nil {
			begin = time.Now()
		}
		switch {
		case op < e.params.PCopy:
			pi := e.selectParent(rng, cum, total)
			next = append(next, Individual{Seq: e.pop[pi].Seq})
			prov = append(prov, Provenance{Op: OpCopy, ParentA: pi, ParentB: -1})
			if e.observe != nil {
				copyDur += time.Since(begin)
			}
		case op < e.params.PCopy+e.params.PMutate:
			pi := e.selectParent(rng, cum, total)
			child := seq.Mutate(rng, e.pop[pi].Seq, e.params.PMutateAA, e.sampler)
			next = append(next, Individual{Seq: child})
			prov = append(prov, Provenance{Op: OpMutate, ParentA: pi, ParentB: -1})
			if e.observe != nil {
				mutateDur += time.Since(begin)
			}
		default:
			ia := e.selectParent(rng, cum, total)
			ib := e.selectParent(rng, cum, total)
			ca, cb := seq.Crossover(rng, e.pop[ia].Seq, e.pop[ib].Seq, e.params.CrossoverMargin)
			next = append(next, Individual{Seq: ca})
			prov = append(prov, Provenance{Op: OpCrossover, ParentA: ia, ParentB: ib})
			if len(next) < e.params.PopulationSize {
				next = append(next, Individual{Seq: cb})
				prov = append(prov, Provenance{Op: OpCrossover, ParentA: ib, ParentB: ia})
			}
			if e.observe != nil {
				crossDur += time.Since(begin)
			}
		}
	}
	if e.observe != nil {
		e.observe("ga_copy", copyDur)
		e.observe("ga_mutate", mutateDur)
		e.observe("ga_crossover", crossDur)
	}
	return next, prov
}

// selectParent draws an individual's index with probability proportional
// to its fitness relative to the population; when every fitness is zero
// the draw is uniform.
func (e *Engine) selectParent(rng *rand.Rand, cum []float64, total float64) int {
	if total <= 0 {
		return rng.Intn(len(e.pop))
	}
	u := rng.Float64() * total
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Termination describes when a run stops (paper Section 4.2: run at
// least MinGenerations, then stop once no new best sequence has been
// found for StallGenerations; MaxGenerations is a hard cap).
type Termination struct {
	MaxGenerations   int // hard cap (0 = none; then MinGenerations+Stall must be set)
	MinGenerations   int
	StallGenerations int
}

// ShouldStop reports whether a run with the given per-generation stats
// history should terminate after generation g (0-based) given the best
// individual last improved at generation lastImprove.
func (t Termination) ShouldStop(g, lastImprove int) bool {
	if t.MaxGenerations > 0 && g+1 >= t.MaxGenerations {
		return true
	}
	if t.StallGenerations > 0 && g+1 >= t.MinGenerations {
		return g-lastImprove >= t.StallGenerations
	}
	return false
}
