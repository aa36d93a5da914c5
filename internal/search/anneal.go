package search

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/ga"
	"repro/internal/obs"
	"repro/internal/seq"
)

// AnnealConfig tunes the simulated-annealing strategy.
type AnnealConfig struct {
	// T0 is the initial temperature of the geometric schedule. Fitness
	// lives in [0,1], so temperatures are small; default 0.02.
	T0 float64
	// Cooling is the geometric decay factor applied per generation:
	// T(g) = max(TMin, T0·Cooling^g). Default 0.995.
	Cooling float64
	// TMin floors the schedule so late generations still accept the
	// occasional uphill move. Default 1e-4.
	TMin float64
}

func (c AnnealConfig) withDefaults() AnnealConfig {
	if c.T0 == 0 {
		c.T0 = 0.02
	}
	if c.Cooling == 0 {
		c.Cooling = 0.995
	}
	if c.TMin == 0 {
		c.TMin = 1e-4
	}
	return c
}

func (c AnnealConfig) validate() error {
	if c.T0 <= 0 {
		return fmt.Errorf("search: anneal t0 %g, want > 0", c.T0)
	}
	if c.Cooling <= 0 || c.Cooling >= 1 {
		return fmt.Errorf("search: anneal cooling %g, want in (0,1)", c.Cooling)
	}
	if c.TMin <= 0 || c.TMin > c.T0 {
		return fmt.Errorf("search: anneal tmin %g, want in (0, t0=%g]", c.TMin, c.T0)
	}
	return nil
}

// RNG stream tags for the annealer's per-slot decision kinds.
const (
	annealStreamInit   = 0x11
	annealStreamMove   = 0x12
	annealStreamAccept = 0x13
)

// annealChain is one independent Metropolis chain's accepted position.
type annealChain struct {
	Name     string
	Residues string
	Fitness  float64
}

// annealSearcher runs PopulationSize independent Metropolis chains over
// the PIPE reward with a shared geometric temperature schedule. Each
// Step evaluates every chain's pending proposal in one batch (keeping
// the evaluation backend saturated), applies the Metropolis acceptance
// rule per chain, then proposes the next batch of single mutations.
type annealSearcher struct {
	cfg     AnnealConfig
	params  ga.Params
	eval    ga.Evaluator
	sampler *seq.Sampler
	rng     *rand.Rand // reseeded per (gen, slot, stream); see slotRNG

	chains     []annealChain   // accepted positions (empty until gen 1)
	pop        []ga.Individual // pending proposals, one per chain
	hintParent []string        // accepted position each proposal mutated from
	generation int
	bestEver   ga.Individual
	bestGen    int
	observe    ga.StageObserver

	counters obs.StrategyCounters
}

// NewAnneal builds the simulated-annealing strategy. params supplies
// the chain count (PopulationSize), sequence length, composition,
// per-residue mutation rate and seed.
func NewAnneal(cfg AnnealConfig, params ga.Params, eval ga.Evaluator) (Searcher, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if params.PopulationSize < 1 {
		return nil, fmt.Errorf("search: anneal needs >= 1 chain, got %d", params.PopulationSize)
	}
	if params.SeqLen < 2 {
		return nil, fmt.Errorf("search: anneal sequence length %d too short", params.SeqLen)
	}
	if params.PMutateAA <= 0 || params.PMutateAA > 1 {
		return nil, fmt.Errorf("search: anneal needs p_mutate_aa in (0,1], got %f", params.PMutateAA)
	}
	var zero seq.Composition
	if params.Composition == zero {
		params.Composition = seq.YeastComposition()
	}
	return &annealSearcher{
		cfg:     cfg,
		params:  params,
		eval:    eval,
		sampler: seq.NewSampler(params.Composition),
		rng:     ga.NewSlotRand(),
	}, nil
}

func (a *annealSearcher) Strategy() string { return StrategyAnneal }

func (a *annealSearcher) PopulationSize() int { return a.params.PopulationSize }

func (a *annealSearcher) Generation() int { return a.generation }

func (a *annealSearcher) Population() []ga.Individual { return a.pop }

func (a *annealSearcher) BestEver() (ga.Individual, int) { return a.bestEver, a.bestGen }

// temperature returns the schedule value used to judge the proposals
// evaluated at generation gen.
func (a *annealSearcher) temperature(gen int) float64 {
	t := a.cfg.T0 * math.Pow(a.cfg.Cooling, float64(gen))
	if t < a.cfg.TMin {
		t = a.cfg.TMin
	}
	return t
}

func (a *annealSearcher) InitPopulation() {
	n := a.PopulationSize()
	a.pop = make([]ga.Individual, n)
	for i := range a.pop {
		rng := slotRNG(a.rng, a.params.Seed, 0, i, annealStreamInit)
		a.pop[i] = ga.Individual{
			Seq: seq.RandomFrom(rng, fmt.Sprintf("a0s%04d", i), a.params.SeqLen, a.sampler),
		}
	}
	a.chains = nil
	a.hintParent = nil
	a.generation = 0
}

func (a *annealSearcher) SetPopulation(seqs []seq.Sequence) error {
	if len(seqs) != a.PopulationSize() {
		return fmt.Errorf("search: got %d sequences, anneal runs %d chains", len(seqs), a.PopulationSize())
	}
	a.pop = make([]ga.Individual, len(seqs))
	for i, s := range seqs {
		a.pop[i] = ga.Individual{Seq: s}
	}
	a.hintParent = nil
	return nil
}

func (a *annealSearcher) ParentHints(seqs []seq.Sequence) (hints, second map[string]string) {
	hints = make(map[string]string)
	for i, parent := range a.hintParent {
		if i < len(seqs) && parent != "" {
			hints[seqs[i].Residues()] = parent
		}
	}
	return hints, nil
}

func (a *annealSearcher) Step() ga.Stats {
	if a.pop == nil {
		a.InitPopulation()
	}
	fits := a.eval.EvaluateAll(batchSeqs(a.pop))
	for i := range a.pop {
		a.pop[i].Fitness = fits[i]
	}
	st := batchStats(a.generation, a.pop, &a.bestEver, &a.bestGen)

	var begin time.Time
	if a.observe != nil {
		begin = time.Now()
	}
	accepted, uphill := 0, 0
	t := a.temperature(a.generation)
	if a.chains == nil {
		// First evaluated batch: every chain adopts its initial
		// position unconditionally.
		a.chains = make([]annealChain, len(a.pop))
		for i, ind := range a.pop {
			a.chains[i] = annealChain{Name: ind.Seq.Name(), Residues: ind.Seq.Residues(), Fitness: ind.Fitness}
		}
		accepted = len(a.pop)
	} else {
		for i, ind := range a.pop {
			delta := ind.Fitness - a.chains[i].Fitness
			ok := delta >= 0
			if !ok {
				rng := slotRNG(a.rng, a.params.Seed, a.generation, i, annealStreamAccept)
				if rng.Float64() < math.Exp(delta/t) {
					ok = true
					uphill++ // accepted a worse move (uphill in energy)
				}
			}
			if ok {
				a.chains[i] = annealChain{Name: ind.Seq.Name(), Residues: ind.Seq.Residues(), Fitness: ind.Fitness}
				accepted++
			}
		}
	}

	// Propose the next batch: one mutation of each chain's accepted
	// position, drawn from the (Seed, generation, slot) stream.
	gen := a.generation + 1
	next := make([]ga.Individual, len(a.chains))
	hints := make([]string, len(a.chains))
	for i, ch := range a.chains {
		rng := slotRNG(a.rng, a.params.Seed, gen, i, annealStreamMove)
		cur := seq.MustNew(ch.Name, ch.Residues)
		next[i] = ga.Individual{Seq: seq.Mutate(rng, cur, a.params.PMutateAA, a.sampler)}
		hints[i] = ch.Residues
	}
	if a.observe != nil {
		a.observe("anneal_select", time.Since(begin))
	}
	a.pop = next
	a.hintParent = hints
	a.counters = obs.StrategyCounters{
		AnnealTemperature: t,
		AnnealAccepted:    accepted,
		AnnealUphill:      uphill,
	}
	a.generation++
	return st
}

func (a *annealSearcher) Counters() obs.StrategyCounters { return a.counters }

// State serializes the chains' accepted positions — the part of the
// annealer the pending proposal batch cannot reconstruct.
func (a *annealSearcher) State() ([]byte, error) {
	if a.chains == nil {
		return nil, nil
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(a.chains); err != nil {
		return nil, fmt.Errorf("search: encode anneal chains: %w", err)
	}
	return buf.Bytes(), nil
}

func (a *annealSearcher) Restore(generation int, pop []seq.Sequence, bestEver ga.Individual, bestGen int, state []byte) error {
	if generation <= 0 {
		return fmt.Errorf("search: cannot restore anneal to generation %d (nothing completed)", generation)
	}
	if bestGen < 0 || bestGen >= generation {
		return fmt.Errorf("search: best-ever generation %d outside completed range [0,%d)", bestGen, generation)
	}
	if len(state) == 0 {
		return fmt.Errorf("search: anneal checkpoint is missing chain state")
	}
	var chains []annealChain
	if err := gob.NewDecoder(bytes.NewReader(state)).Decode(&chains); err != nil {
		return fmt.Errorf("search: decode anneal chains: %w", err)
	}
	if len(chains) != a.PopulationSize() {
		return fmt.Errorf("search: checkpoint has %d anneal chains, designer runs %d", len(chains), a.PopulationSize())
	}
	for i, ch := range chains {
		if err := checkPosition("anneal chain", i, ch.Name, ch.Residues); err != nil {
			return err
		}
	}
	if err := a.SetPopulation(pop); err != nil {
		return err
	}
	// Rebuild the hint parents so the resumed batch still benefits from
	// delta preprocessing against the accepted positions.
	a.hintParent = make([]string, len(chains))
	for i, ch := range chains {
		a.hintParent[i] = ch.Residues
	}
	a.chains = chains
	a.generation = generation
	a.bestEver = bestEver
	a.bestGen = bestGen
	return nil
}

func (a *annealSearcher) SetStageObserver(fn ga.StageObserver) { a.observe = fn }

// checkPosition reports a restored chain or walker position that Step
// could not build (seq.MustNew panics on a non-residue byte) or move (a
// mutation draws a position from the residues): a damaged checkpoint is
// an error from Restore, not a panic in the replica that resumes it.
func checkPosition(kind string, i int, name, residues string) error {
	if residues == "" {
		return fmt.Errorf("search: checkpoint %s %d has no residues", kind, i)
	}
	if _, err := seq.New(name, residues); err != nil {
		return fmt.Errorf("search: checkpoint %s %d: %w", kind, i, err)
	}
	return nil
}
