package search

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/ga"
	"repro/internal/obs"
	"repro/internal/seq"
)

// BeamConfig tunes the beam-search strategy.
type BeamConfig struct {
	// Width is the beam width: survivors kept per generation. Default 8.
	Width int
	// Expand is the children generated per beam node, including the
	// node's own survival copy (child 0 is the node verbatim, so elite
	// sequences persist across generations via fitness-cache hits
	// rather than hidden state). Default 6; minimum 2.
	Expand int
	// EliteExtra grants the top-ranked node this many additional mutant
	// children — the ProtInvTree-style re-expansion of elite nodes,
	// spending extra reward-model budget where the search is winning.
	// Default Expand, 0 disables.
	EliteExtra int
	// Depth, when positive, caps the run at this many generations
	// (tree depth). It is enforced by the callers that own termination
	// (cmd/insips, insipsd), not by the Searcher itself.
	Depth int
}

func (c BeamConfig) withDefaults() BeamConfig {
	if c.Width == 0 {
		c.Width = 8
	}
	if c.Expand == 0 {
		c.Expand = 6
	}
	if c.EliteExtra == 0 {
		c.EliteExtra = c.Expand
	}
	if c.EliteExtra < 0 { // explicit "no re-expansion"
		c.EliteExtra = 0
	}
	return c
}

func (c BeamConfig) validate() error {
	if c.Width < 1 {
		return fmt.Errorf("search: beam width %d, want >= 1", c.Width)
	}
	if c.Expand < 2 {
		return fmt.Errorf("search: beam expand %d, want >= 2 (the survival copy plus at least one mutant)", c.Expand)
	}
	if c.Depth < 0 {
		return fmt.Errorf("search: beam depth %d, want >= 0", c.Depth)
	}
	return nil
}

// RNG stream tags decorrelate the different decision kinds a beam slot
// makes within one generation.
const (
	beamStreamInit   = 0x01
	beamStreamMutate = 0x02
)

// beamSearcher is reward-guided beam search over the PIPE kernel: each
// generation evaluates a fixed batch of Width×Expand+EliteExtra
// candidates, keeps the Width fittest as the beam, and re-expands them
// into the next batch. Because every node's survival copy rides in the
// batch, the selected beam is always reconstructible from the evaluated
// batch alone — the checkpoint needs no strategy state.
type beamSearcher struct {
	cfg     BeamConfig
	params  ga.Params
	eval    ga.Evaluator
	sampler *seq.Sampler
	rng     *rand.Rand // reseeded per (gen, slot, stream); see slotRNG

	pop        []ga.Individual // current unevaluated batch
	hintParent []string        // residues of each batch slot's beam parent
	generation int
	bestEver   ga.Individual
	bestGen    int
	observe    ga.StageObserver

	counters obs.StrategyCounters
}

// NewBeam builds the beam-search strategy. The GA parameters contribute
// the sequence length, residue composition, per-residue mutation rate
// and seed; the batch size is Width×Expand+EliteExtra, independent of
// params.PopulationSize.
func NewBeam(cfg BeamConfig, params ga.Params, eval ga.Evaluator) (Searcher, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if params.SeqLen < 2 {
		return nil, fmt.Errorf("search: beam sequence length %d too short", params.SeqLen)
	}
	if params.PMutateAA <= 0 || params.PMutateAA > 1 {
		return nil, fmt.Errorf("search: beam needs p_mutate_aa in (0,1], got %f", params.PMutateAA)
	}
	var zero seq.Composition
	if params.Composition == zero {
		params.Composition = seq.YeastComposition()
	}
	return &beamSearcher{
		cfg:     cfg,
		params:  params,
		eval:    eval,
		sampler: seq.NewSampler(params.Composition),
		rng:     ga.NewSlotRand(),
	}, nil
}

func (b *beamSearcher) Strategy() string { return StrategyBeam }

func (b *beamSearcher) PopulationSize() int {
	return b.cfg.Width*b.cfg.Expand + b.cfg.EliteExtra
}

func (b *beamSearcher) Generation() int { return b.generation }

func (b *beamSearcher) Population() []ga.Individual { return b.pop }

func (b *beamSearcher) BestEver() (ga.Individual, int) { return b.bestEver, b.bestGen }

func (b *beamSearcher) InitPopulation() {
	n := b.PopulationSize()
	b.pop = make([]ga.Individual, n)
	for i := range b.pop {
		rng := slotRNG(b.rng, b.params.Seed, 0, i, beamStreamInit)
		b.pop[i] = ga.Individual{
			Seq: seq.RandomFrom(rng, fmt.Sprintf("b0s%04d", i), b.params.SeqLen, b.sampler),
		}
	}
	b.hintParent = nil
	b.generation = 0
}

func (b *beamSearcher) SetPopulation(seqs []seq.Sequence) error {
	if len(seqs) != b.PopulationSize() {
		return fmt.Errorf("search: got %d sequences, beam batch size is %d", len(seqs), b.PopulationSize())
	}
	b.pop = make([]ga.Individual, len(seqs))
	for i, s := range seqs {
		b.pop[i] = ga.Individual{Seq: s}
	}
	b.hintParent = nil
	return nil
}

func (b *beamSearcher) ParentHints(seqs []seq.Sequence) (hints, second map[string]string) {
	hints = make(map[string]string)
	for i, parent := range b.hintParent {
		if i < len(seqs) && parent != "" {
			hints[seqs[i].Residues()] = parent
		}
	}
	return hints, nil
}

func (b *beamSearcher) Step() ga.Stats {
	if b.pop == nil {
		b.InitPopulation()
	}
	fits := b.eval.EvaluateAll(batchSeqs(b.pop))
	for i := range b.pop {
		b.pop[i].Fitness = fits[i]
	}
	st := batchStats(b.generation, b.pop, &b.bestEver, &b.bestGen)

	// Select the beam: top Width by fitness, ties broken by batch slot
	// so selection is deterministic.
	order := make([]int, len(b.pop))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return b.pop[order[i]].Fitness > b.pop[order[j]].Fitness
	})
	width := b.cfg.Width
	if width > len(order) {
		width = len(order)
	}
	beam := make([]ga.Individual, width)
	for r := 0; r < width; r++ {
		beam[r] = b.pop[order[r]]
	}

	b.expand(beam)
	b.generation++
	return st
}

// expand builds the next batch: each beam node contributes its survival
// copy plus Expand-1 mutants, and the rank-0 elite node is re-expanded
// with EliteExtra additional mutants. Slot numbering is global across
// the batch so every draw derives from (Seed, generation, slot).
func (b *beamSearcher) expand(beam []ga.Individual) {
	gen := b.generation + 1
	n := b.PopulationSize()
	next := make([]ga.Individual, 0, n)
	hints := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	var begin time.Time
	if b.observe != nil {
		begin = time.Now()
	}
	emit := func(child seq.Sequence, parent ga.Individual) {
		next = append(next, ga.Individual{Seq: child})
		hints = append(hints, parent.Seq.Residues())
		seen[child.Residues()] = struct{}{}
	}
	slot := 0
	for r, node := range beam {
		children := b.cfg.Expand
		if r == 0 {
			children += b.cfg.EliteExtra
		}
		for c := 0; c < children && len(next) < n; c++ {
			rng := slotRNG(b.rng, b.params.Seed, gen, slot, beamStreamMutate)
			slot++
			if c == 0 {
				// Survival copy: the node itself re-enters the batch, so
				// selection next generation can keep it (its score comes
				// back as a fitness-cache hit, not a re-evaluation).
				emit(node.Seq, node)
				continue
			}
			emit(seq.Mutate(rng, node.Seq, b.params.PMutateAA, b.sampler), node)
		}
	}
	// A short beam (first generations of a tiny width) cannot fill the
	// fixed batch from Expand alone; pad with extra elite mutants so
	// the batch size — and with it the checkpoint shape — is constant.
	for len(next) < n {
		rng := slotRNG(b.rng, b.params.Seed, gen, slot, beamStreamMutate)
		slot++
		elite := beam[0]
		emit(seq.Mutate(rng, elite.Seq, b.params.PMutateAA, b.sampler), elite)
	}
	if b.observe != nil {
		b.observe("beam_expand", time.Since(begin))
	}
	b.pop = next
	b.hintParent = hints
	b.counters = obs.StrategyCounters{
		BeamWidth:          len(beam),
		BeamUniqueChildren: len(seen),
		BeamEliteExtra:     b.cfg.EliteExtra,
	}
}

func (b *beamSearcher) Counters() obs.StrategyCounters { return b.counters }

// State returns nil: the batch always contains each beam node's
// survival copy, so the evaluated batch alone reconstructs the beam.
func (b *beamSearcher) State() ([]byte, error) { return nil, nil }

func (b *beamSearcher) Restore(generation int, pop []seq.Sequence, bestEver ga.Individual, bestGen int, state []byte) error {
	if len(state) != 0 {
		return fmt.Errorf("search: beam checkpoint carries %d bytes of strategy state, want none", len(state))
	}
	if generation <= 0 {
		return fmt.Errorf("search: cannot restore beam to generation %d (nothing completed)", generation)
	}
	if bestGen < 0 || bestGen >= generation {
		return fmt.Errorf("search: best-ever generation %d outside completed range [0,%d)", bestGen, generation)
	}
	if err := b.SetPopulation(pop); err != nil {
		return err
	}
	b.generation = generation
	b.bestEver = bestEver
	b.bestGen = bestGen
	return nil
}

func (b *beamSearcher) SetStageObserver(fn ga.StageObserver) { b.observe = fn }
