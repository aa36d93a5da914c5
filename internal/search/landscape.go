package search

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/ga"
	"repro/internal/obs"
	"repro/internal/seq"
)

// LandscapeConfig tunes the landscape-analysis mode. Unlike the other
// strategies it does not optimize: it characterises the fitness
// landscape around the frozen PIPE reward by running neutral-network
// random walks (how far can a sequence drift without losing fitness?)
// alongside greedy hill climbers that census local optima.
type LandscapeConfig struct {
	// Eps is the neutrality band: a neutral walker accepts a move when
	// |Δfitness| <= Eps. Default 0.01.
	Eps float64
	// Patience is both the neutral walkers' census cadence (a
	// neutral_walk record every Patience steps) and the hill climbers'
	// stall threshold (Patience consecutive rejected moves declare a
	// local optimum). Default 20.
	Patience int
	// OnCensus, when non-nil, receives each census record as it is
	// produced — typically (*CensusWriter).Append.
	OnCensus func(CensusRecord)
}

func (c LandscapeConfig) withDefaults() LandscapeConfig {
	if c.Eps == 0 {
		c.Eps = 0.01
	}
	if c.Patience == 0 {
		c.Patience = 20
	}
	return c
}

func (c LandscapeConfig) validate() error {
	if c.Eps < 0 {
		return fmt.Errorf("search: landscape eps %g, want >= 0", c.Eps)
	}
	if c.Patience < 1 {
		return fmt.Errorf("search: landscape patience %d, want >= 1", c.Patience)
	}
	return nil
}

// Census record kinds.
const (
	CensusOptimum     = "optimum"      // a hill climber stalled at a local optimum
	CensusNeutralWalk = "neutral_walk" // a neutral walker's periodic position report
)

// CensusRecord is one JSONL line of the landscape census, emitted the
// same way obs.RunJournal records generations.
type CensusRecord struct {
	Kind       string  `json:"kind"` // CensusOptimum or CensusNeutralWalk
	Walker     int     `json:"walker"`
	Generation int     `json:"generation"`
	Fitness    float64 `json:"fitness"`
	// Steps is the accepted-move count since the walker's last restart
	// (optimum records) or since the walk began (neutral records).
	Steps int `json:"steps"`
	// SeqHash is the FNV-64a hash of the walker's residues, hex-encoded;
	// it identifies distinct optima without storing full sequences.
	SeqHash string `json:"seq_hash"`
}

// CensusWriter appends census records to a JSONL file, mirroring the
// run journal's append-per-record discipline.
type CensusWriter struct {
	f *os.File
	w *bufio.Writer
}

// CensusPath returns the census file location inside a journal
// directory.
func CensusPath(dir string) string { return filepath.Join(dir, "census.jsonl") }

// NewCensusWriter creates or appends to the census file at path.
// Append semantics let a resumed landscape run extend its census the
// way the run journal extends its generation records.
func NewCensusWriter(path string) (*CensusWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("search: open census: %w", err)
	}
	return &CensusWriter{f: f, w: bufio.NewWriter(f)}, nil
}

// Append writes one record as a JSON line.
func (c *CensusWriter) Append(rec CensusRecord) {
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	c.w.Write(b)
	c.w.WriteByte('\n')
}

// Close flushes and closes the census file.
func (c *CensusWriter) Close() error {
	if err := c.w.Flush(); err != nil {
		c.f.Close()
		return err
	}
	return c.f.Close()
}

// ReadCensus loads every record from a census JSONL file.
func ReadCensus(path string) ([]CensusRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []CensusRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec CensusRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("search: census line %d: %w", len(out)+1, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

func seqHash(residues string) string {
	h := fnv.New64a()
	h.Write([]byte(residues))
	return fmt.Sprintf("%016x", h.Sum64())
}

// RNG stream tags for the landscape walkers' decision kinds.
const (
	landStreamInit    = 0x21
	landStreamMove    = 0x22
	landStreamRestart = 0x23
)

// landWalker is one walker's accepted position and walk bookkeeping.
type landWalker struct {
	Name     string
	Residues string
	Fitness  float64
	Steps    int  // accepted moves since restart (or walk start)
	Rejects  int  // consecutive rejected moves (hill climbers)
	Fresh    bool // restarted: next proposal is the position itself
}

// landscapeSearcher characterises the fitness landscape rather than
// optimizing over it. Even-indexed walkers perform neutral-network
// random walks (accept |Δf| <= Eps); odd-indexed walkers hill-climb
// greedily and, after Patience consecutive rejections, record a local
// optimum in the census and restart from a fresh random sequence.
type landscapeSearcher struct {
	cfg     LandscapeConfig
	params  ga.Params
	eval    ga.Evaluator
	sampler *seq.Sampler
	rng     *rand.Rand // reseeded per (gen, slot, stream); see slotRNG

	walkers    []landWalker
	pop        []ga.Individual // pending proposals, one per walker
	hintParent []string
	generation int
	bestEver   ga.Individual
	bestGen    int
	observe    ga.StageObserver

	optima   int // cumulative local optima recorded
	restarts int // cumulative hill-climber restarts
	counters obs.StrategyCounters
}

// NewLandscape builds the landscape-analysis mode. params supplies the
// walker count (PopulationSize), sequence length, composition and seed.
func NewLandscape(cfg LandscapeConfig, params ga.Params, eval ga.Evaluator) (Searcher, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if params.PopulationSize < 2 {
		return nil, fmt.Errorf("search: landscape needs >= 2 walkers (one neutral, one climber), got %d", params.PopulationSize)
	}
	if params.SeqLen < 2 {
		return nil, fmt.Errorf("search: landscape sequence length %d too short", params.SeqLen)
	}
	var zero seq.Composition
	if params.Composition == zero {
		params.Composition = seq.YeastComposition()
	}
	return &landscapeSearcher{
		cfg:     cfg,
		params:  params,
		eval:    eval,
		sampler: seq.NewSampler(params.Composition),
		rng:     ga.NewSlotRand(),
	}, nil
}

func (l *landscapeSearcher) Strategy() string { return StrategyLandscape }

func (l *landscapeSearcher) PopulationSize() int { return l.params.PopulationSize }

func (l *landscapeSearcher) Generation() int { return l.generation }

func (l *landscapeSearcher) Population() []ga.Individual { return l.pop }

func (l *landscapeSearcher) BestEver() (ga.Individual, int) { return l.bestEver, l.bestGen }

func (l *landscapeSearcher) neutral(i int) bool { return i%2 == 0 }

func (l *landscapeSearcher) InitPopulation() {
	n := l.PopulationSize()
	l.pop = make([]ga.Individual, n)
	for i := range l.pop {
		rng := slotRNG(l.rng, l.params.Seed, 0, i, landStreamInit)
		l.pop[i] = ga.Individual{
			Seq: seq.RandomFrom(rng, fmt.Sprintf("l0s%04d", i), l.params.SeqLen, l.sampler),
		}
	}
	l.walkers = nil
	l.hintParent = nil
	l.generation = 0
}

func (l *landscapeSearcher) SetPopulation(seqs []seq.Sequence) error {
	if len(seqs) != l.PopulationSize() {
		return fmt.Errorf("search: got %d sequences, landscape runs %d walkers", len(seqs), l.PopulationSize())
	}
	l.pop = make([]ga.Individual, len(seqs))
	for i, s := range seqs {
		l.pop[i] = ga.Individual{Seq: s}
	}
	l.hintParent = nil
	return nil
}

func (l *landscapeSearcher) ParentHints(seqs []seq.Sequence) (hints, second map[string]string) {
	hints = make(map[string]string)
	for i, parent := range l.hintParent {
		if i < len(seqs) && parent != "" {
			hints[seqs[i].Residues()] = parent
		}
	}
	return hints, nil
}

// mutateOne substitutes a single residue at a random position, the
// landscape walk's unit move (Hamming distance <= 1).
func (l *landscapeSearcher) mutateOne(rng *rand.Rand, s seq.Sequence) seq.Sequence {
	res := []byte(s.Residues())
	pos := rng.Intn(len(res))
	res[pos] = l.sampler.Draw(rng)
	return seq.MustNew(s.Name(), string(res))
}

func (l *landscapeSearcher) emit(rec CensusRecord) {
	if l.cfg.OnCensus != nil {
		l.cfg.OnCensus(rec)
	}
}

func (l *landscapeSearcher) Step() ga.Stats {
	if l.pop == nil {
		l.InitPopulation()
	}
	fits := l.eval.EvaluateAll(batchSeqs(l.pop))
	for i := range l.pop {
		l.pop[i].Fitness = fits[i]
	}
	st := batchStats(l.generation, l.pop, &l.bestEver, &l.bestGen)

	var begin time.Time
	if l.observe != nil {
		begin = time.Now()
	}
	neutralAccepts := 0
	if l.walkers == nil {
		// First evaluated batch: every walker adopts its start position.
		l.walkers = make([]landWalker, len(l.pop))
		for i, ind := range l.pop {
			l.walkers[i] = landWalker{Name: ind.Seq.Name(), Residues: ind.Seq.Residues(), Fitness: ind.Fitness}
		}
	} else {
		for i := range l.walkers {
			w := &l.walkers[i]
			ind := l.pop[i]
			if w.Fresh {
				// Restarted walker re-evaluated its new start position.
				w.Residues = ind.Seq.Residues()
				w.Fitness = ind.Fitness
				w.Fresh = false
				w.Steps = 0
				w.Rejects = 0
				continue
			}
			delta := ind.Fitness - w.Fitness
			if l.neutral(i) {
				if math.Abs(delta) <= l.cfg.Eps {
					w.Residues = ind.Seq.Residues()
					w.Fitness = ind.Fitness
					w.Steps++
					neutralAccepts++
				}
				if l.generation%l.cfg.Patience == 0 {
					l.emit(CensusRecord{
						Kind: CensusNeutralWalk, Walker: i, Generation: l.generation,
						Fitness: w.Fitness, Steps: w.Steps, SeqHash: seqHash(w.Residues),
					})
				}
				continue
			}
			// Hill climber: strictly uphill only.
			if delta > 0 {
				w.Residues = ind.Seq.Residues()
				w.Fitness = ind.Fitness
				w.Steps++
				w.Rejects = 0
			} else {
				w.Rejects++
				if w.Rejects >= l.cfg.Patience {
					l.optima++
					l.emit(CensusRecord{
						Kind: CensusOptimum, Walker: i, Generation: l.generation,
						Fitness: w.Fitness, Steps: w.Steps, SeqHash: seqHash(w.Residues),
					})
					// Restart from a fresh random sequence; the next
					// proposal is the new start itself.
					rng := slotRNG(l.rng, l.params.Seed, l.generation, i, landStreamRestart)
					fresh := seq.RandomFrom(rng, fmt.Sprintf("l%ds%04d", l.generation+1, i), l.params.SeqLen, l.sampler)
					w.Name = fresh.Name()
					w.Residues = fresh.Residues()
					w.Fitness = 0
					w.Steps = 0
					w.Rejects = 0
					w.Fresh = true
					l.restarts++
				}
			}
		}
	}

	// Propose the next batch: fresh walkers submit their new start
	// position verbatim; everyone else proposes a single-residue move.
	gen := l.generation + 1
	next := make([]ga.Individual, len(l.walkers))
	hints := make([]string, len(l.walkers))
	for i := range l.walkers {
		w := &l.walkers[i]
		cur := seq.MustNew(w.Name, w.Residues)
		if w.Fresh {
			next[i] = ga.Individual{Seq: cur}
			continue
		}
		rng := slotRNG(l.rng, l.params.Seed, gen, i, landStreamMove)
		next[i] = ga.Individual{Seq: l.mutateOne(rng, cur)}
		hints[i] = w.Residues
	}
	if l.observe != nil {
		l.observe("landscape_select", time.Since(begin))
	}
	l.pop = next
	l.hintParent = hints
	l.counters = obs.StrategyCounters{
		LandscapeOptima:         l.optima,
		LandscapeRestarts:       l.restarts,
		LandscapeNeutralAccepts: neutralAccepts,
	}
	l.generation++
	return st
}

func (l *landscapeSearcher) Counters() obs.StrategyCounters { return l.counters }

// landState is the gob payload of the landscape mode's checkpoint blob.
type landState struct {
	Walkers  []landWalker
	Optima   int
	Restarts int
}

func (l *landscapeSearcher) State() ([]byte, error) {
	if l.walkers == nil {
		return nil, nil
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(landState{Walkers: l.walkers, Optima: l.optima, Restarts: l.restarts}); err != nil {
		return nil, fmt.Errorf("search: encode landscape walkers: %w", err)
	}
	return buf.Bytes(), nil
}

func (l *landscapeSearcher) Restore(generation int, pop []seq.Sequence, bestEver ga.Individual, bestGen int, state []byte) error {
	if generation <= 0 {
		return fmt.Errorf("search: cannot restore landscape to generation %d (nothing completed)", generation)
	}
	if bestGen < 0 || bestGen >= generation {
		return fmt.Errorf("search: best-ever generation %d outside completed range [0,%d)", bestGen, generation)
	}
	if len(state) == 0 {
		return fmt.Errorf("search: landscape checkpoint is missing walker state")
	}
	var ls landState
	if err := gob.NewDecoder(bytes.NewReader(state)).Decode(&ls); err != nil {
		return fmt.Errorf("search: decode landscape walkers: %w", err)
	}
	if len(ls.Walkers) != l.PopulationSize() {
		return fmt.Errorf("search: checkpoint has %d landscape walkers, designer runs %d", len(ls.Walkers), l.PopulationSize())
	}
	if err := l.SetPopulation(pop); err != nil {
		return err
	}
	l.hintParent = make([]string, len(ls.Walkers))
	for i, w := range ls.Walkers {
		if !w.Fresh {
			l.hintParent[i] = w.Residues
		}
	}
	l.walkers = ls.Walkers
	l.optima = ls.Optima
	l.restarts = ls.Restarts
	l.generation = generation
	l.bestEver = bestEver
	l.bestGen = bestGen
	return nil
}

func (l *landscapeSearcher) SetStageObserver(fn ga.StageObserver) { l.observe = fn }
