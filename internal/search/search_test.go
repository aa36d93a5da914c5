package search

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ga"
	"repro/internal/seq"
)

// countingEvaluator scores sequences by the fraction of 'A' residues —
// the same smooth toy landscape the ga package tests climb.
func countingEvaluator() ga.Evaluator {
	return ga.EvaluatorFunc(func(seqs []seq.Sequence) []float64 {
		out := make([]float64, len(seqs))
		for i, s := range seqs {
			n := 0
			for j := 0; j < s.Len(); j++ {
				if s.At(j) == 'A' {
					n++
				}
			}
			out[i] = float64(n) / float64(s.Len())
		}
		return out
	})
}

func smallParams() ga.Params {
	p := ga.DefaultParams()
	p.PopulationSize = 24
	p.SeqLen = 40
	p.Seed = 42
	return p
}

func popResidues(s Searcher) []string {
	pop := s.Population()
	out := make([]string, len(pop))
	for i, ind := range pop {
		out[i] = ind.Seq.Residues()
	}
	return out
}

// TestSlotRNGMatchesFreshSource pins a searcher's one reseeded generator
// to the stream this package used to allocate per slot: a fresh
// math/rand source seeded with the (seed, gen, slot, stream) hash, whose
// mixing is spelled out here so a change to ga.SlotSeed cannot pass
// unnoticed. The draw count varies so nothing of the previous slot's
// state can show through the reseed.
func TestSlotRNGMatchesFreshSource(t *testing.T) {
	fresh := func(seed int64, gen, slot int, stream uint64) *rand.Rand {
		x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(gen)*0xBF58476D1CE4E5B9 +
			uint64(slot)*0x94D049BB133111EB + stream*0xD6E8FEB86659FD93 + 1
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
		return rand.New(rand.NewSource(int64(x)))
	}
	rng := ga.NewSlotRand()
	for _, seed := range []int64{0, 42, -7} {
		for gen := 0; gen < 3; gen++ {
			for slot := 0; slot < 12; slot++ {
				for _, stream := range []uint64{beamStreamInit, annealStreamAccept, annealStreamMove, landStreamRestart} {
					got, want := slotRNG(rng, seed, gen, slot, stream), fresh(seed, gen, slot, stream)
					for draw := 0; draw < 2+(gen+slot)%5; draw++ {
						if g, w := got.Float64(), want.Float64(); g != w {
							t.Fatalf("seed %d gen %d slot %d stream %d draw %d: Float64 %v, fresh source %v", seed, gen, slot, stream, draw, g, w)
						}
						if g, w := got.Intn(40), want.Intn(40); g != w {
							t.Fatalf("seed %d gen %d slot %d stream %d draw %d: Intn %d, fresh source %d", seed, gen, slot, stream, draw, g, w)
						}
					}
				}
			}
		}
	}
}

func TestStrategiesRegistry(t *testing.T) {
	for _, name := range Strategies() {
		cfg := Config{Strategy: name}
		if cfg.Name() != name {
			t.Errorf("Name() = %q, want %q", cfg.Name(), name)
		}
		s, err := New(cfg, smallParams(), countingEvaluator())
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s.Strategy() != name {
			t.Errorf("Strategy() = %q, want %q", s.Strategy(), name)
		}
	}
	if (Config{}).Name() != StrategyGA {
		t.Errorf("zero Config resolves to %q, want ga", Config{}.Name())
	}
	if _, err := New(Config{Strategy: "gradient"}, smallParams(), countingEvaluator()); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := New(Config{}, smallParams(), nil); err == nil {
		t.Error("nil evaluator accepted")
	}
}

// TestGAAdapterBitIdentical proves the Searcher seam adds nothing to
// the GA trajectory: stepping the adapter and a bare engine from the
// same params yields identical populations and stats at every step.
func TestGAAdapterBitIdentical(t *testing.T) {
	params := smallParams()
	eng, err := ga.New(params, countingEvaluator())
	if err != nil {
		t.Fatal(err)
	}
	sr, err := New(Config{}, params, countingEvaluator())
	if err != nil {
		t.Fatal(err)
	}
	eng.InitPopulation()
	sr.InitPopulation()
	for step := 0; step < 6; step++ {
		wantPop := eng.Population()
		gotPop := sr.Population()
		if len(wantPop) != len(gotPop) {
			t.Fatalf("step %d: population sizes differ", step)
		}
		for i := range wantPop {
			if wantPop[i].Seq.Residues() != gotPop[i].Seq.Residues() {
				t.Fatalf("step %d slot %d: populations diverge", step, i)
			}
		}
		want := eng.Step()
		got := sr.Step()
		if want != got {
			t.Fatalf("step %d: stats diverge: engine %+v searcher %+v", step, want, got)
		}
	}
}

// runSteps advances a searcher n steps and returns the best fitness.
func runSteps(t *testing.T, s Searcher, n int) float64 {
	t.Helper()
	s.InitPopulation()
	var best float64
	for i := 0; i < n; i++ {
		st := s.Step()
		best = st.BestEver
	}
	return best
}

func TestBeamDeterministicAndImproves(t *testing.T) {
	params := smallParams()
	cfg := Config{Strategy: StrategyBeam, Beam: BeamConfig{Width: 4, Expand: 4, EliteExtra: 4}}
	a, err := New(cfg, params, countingEvaluator())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := a.PopulationSize(), 4*4+4; got != want {
		t.Fatalf("beam batch size %d, want %d", got, want)
	}
	b, _ := New(cfg, params, countingEvaluator())
	bestA := runSteps(t, a, 8)
	bestB := runSteps(t, b, 8)
	if bestA != bestB {
		t.Fatalf("beam not deterministic: %v vs %v", bestA, bestB)
	}
	for i, ra := range popResidues(a) {
		if ra != popResidues(b)[i] {
			t.Fatalf("beam populations diverge at slot %d", i)
		}
	}
	// On the counting landscape the elite-preserving beam must climb.
	first, _ := New(cfg, params, countingEvaluator())
	if early := runSteps(t, first, 1); bestA <= early {
		t.Fatalf("beam did not improve: gen1 %v, gen8 %v", early, bestA)
	}
}

func TestAnnealDeterministicAndImproves(t *testing.T) {
	params := smallParams()
	cfg := Config{Strategy: StrategyAnneal}
	a, _ := New(cfg, params, countingEvaluator())
	b, _ := New(cfg, params, countingEvaluator())
	bestA := runSteps(t, a, 12)
	if bestA != runSteps(t, b, 12) {
		t.Fatal("anneal not deterministic")
	}
	c := a.Counters()
	if c.AnnealTemperature <= 0 {
		t.Errorf("anneal temperature %v, want > 0", c.AnnealTemperature)
	}
	if c.AnnealAccepted < 0 || c.AnnealAccepted > params.PopulationSize {
		t.Errorf("anneal accepted %d out of range", c.AnnealAccepted)
	}
	first, _ := New(cfg, params, countingEvaluator())
	if early := runSteps(t, first, 1); bestA <= early {
		t.Fatalf("anneal did not improve: gen1 %v, gen12 %v", early, bestA)
	}
}

// resumeBitIdentical interrupts a strategy at cut, round-trips its
// checkpointable state through Restore on a fresh searcher, runs both
// to total and compares final populations and best-ever.
func resumeBitIdentical(t *testing.T, cfg Config, cut, total int) {
	t.Helper()
	params := smallParams()
	full, err := New(cfg, params, countingEvaluator())
	if err != nil {
		t.Fatal(err)
	}
	runSteps(t, full, total)

	part, _ := New(cfg, params, countingEvaluator())
	runSteps(t, part, cut)
	state, err := part.State()
	if err != nil {
		t.Fatal(err)
	}
	pop := make([]seq.Sequence, 0, part.PopulationSize())
	for _, ind := range part.Population() {
		pop = append(pop, ind.Seq)
	}
	bestEver, bestGen := part.BestEver()

	resumed, _ := New(cfg, params, countingEvaluator())
	if err := resumed.Restore(part.Generation(), pop, bestEver, bestGen, state); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	for resumed.Generation() < total {
		resumed.Step()
	}

	wantBest, wantGen := full.BestEver()
	gotBest, gotGen := resumed.BestEver()
	if wantBest.Fitness != gotBest.Fitness || wantBest.Seq.Residues() != gotBest.Seq.Residues() || wantGen != gotGen {
		t.Fatalf("best-ever diverges after resume: full (%v gen %d) resumed (%v gen %d)",
			wantBest.Fitness, wantGen, gotBest.Fitness, gotGen)
	}
	wantPop, gotPop := popResidues(full), popResidues(resumed)
	for i := range wantPop {
		if wantPop[i] != gotPop[i] {
			t.Fatalf("slot %d diverges after resume", i)
		}
	}
}

func TestBeamResumeBitIdentical(t *testing.T) {
	resumeBitIdentical(t, Config{Strategy: StrategyBeam, Beam: BeamConfig{Width: 3, Expand: 3, EliteExtra: 3}}, 3, 8)
}

func TestAnnealResumeBitIdentical(t *testing.T) {
	resumeBitIdentical(t, Config{Strategy: StrategyAnneal}, 4, 10)
}

func TestLandscapeResumeBitIdentical(t *testing.T) {
	resumeBitIdentical(t, Config{Strategy: StrategyLandscape, Landscape: LandscapeConfig{Patience: 3}}, 4, 10)
}

func TestAnnealRestoreRejectsMissingState(t *testing.T) {
	s, _ := New(Config{Strategy: StrategyAnneal}, smallParams(), countingEvaluator())
	pop := make([]seq.Sequence, smallParams().PopulationSize)
	for i := range pop {
		pop[i] = seq.MustNew("x", "ACDEFGHIKL")
	}
	if err := s.Restore(3, pop, ga.Individual{}, 0, nil); err == nil {
		t.Error("anneal Restore accepted a checkpoint without chain state")
	}
}

func TestGARestoreRejectsForeignState(t *testing.T) {
	params := smallParams()
	s, _ := New(Config{}, params, countingEvaluator())
	pop := make([]seq.Sequence, params.PopulationSize)
	for i := range pop {
		pop[i] = seq.MustNew("x", "ACDEFGHIKL")
	}
	if err := s.Restore(3, pop, ga.Individual{Seq: pop[0], Fitness: 0.1}, 1, []byte{1, 2, 3}); err == nil {
		t.Error("ga Restore accepted a strategy-state blob")
	}
}

func TestLandscapeCensus(t *testing.T) {
	params := smallParams()
	params.PopulationSize = 8
	var recs []CensusRecord
	cfg := Config{Strategy: StrategyLandscape, Landscape: LandscapeConfig{
		Patience: 2,
		OnCensus: func(r CensusRecord) { recs = append(recs, r) },
	}}
	s, err := New(cfg, params, countingEvaluator())
	if err != nil {
		t.Fatal(err)
	}
	runSteps(t, s, 20)
	if len(recs) == 0 {
		t.Fatal("no census records after 20 generations with patience 2")
	}
	optima, walks := 0, 0
	for _, r := range recs {
		switch r.Kind {
		case CensusOptimum:
			optima++
			if r.SeqHash == "" || len(r.SeqHash) != 16 {
				t.Errorf("optimum record without a 16-hex seq hash: %+v", r)
			}
		case CensusNeutralWalk:
			walks++
		default:
			t.Errorf("unknown census kind %q", r.Kind)
		}
	}
	if optima == 0 {
		t.Error("hill climbers recorded no local optima (patience 2, 20 generations)")
	}
	if walks == 0 {
		t.Error("neutral walkers recorded no walk reports")
	}
	c := s.Counters()
	if c.LandscapeOptima != optima {
		t.Errorf("counter reports %d optima, census has %d", c.LandscapeOptima, optima)
	}
	if c.LandscapeRestarts != optima {
		t.Errorf("restarts %d, want one per optimum %d", c.LandscapeRestarts, optima)
	}
}

func TestCensusWriterRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := CensusPath(dir)
	w, err := NewCensusWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []CensusRecord{
		{Kind: CensusOptimum, Walker: 1, Generation: 7, Fitness: 0.5, Steps: 12, SeqHash: "00deadbeef001234"},
		{Kind: CensusNeutralWalk, Walker: 0, Generation: 8, Fitness: 0.25, Steps: 3, SeqHash: "0123456789abcdef"},
	}
	for _, r := range want {
		w.Append(r)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCensus(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, wrote %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	if fi, err := os.Stat(filepath.Join(dir, "census.jsonl")); err != nil || fi.Size() == 0 {
		t.Errorf("census file missing or empty: %v", err)
	}
}

func TestBeamValidation(t *testing.T) {
	params := smallParams()
	bad := []BeamConfig{
		{Width: -1},
		{Expand: 1},
		{Depth: -3},
	}
	for i, cfg := range bad {
		if _, err := NewBeam(cfg, params, countingEvaluator()); err == nil {
			t.Errorf("case %d: invalid beam config accepted: %+v", i, cfg)
		}
	}
}

func TestAnnealValidation(t *testing.T) {
	params := smallParams()
	bad := []AnnealConfig{
		{T0: -0.1},
		{Cooling: 1.5},
		{T0: 0.01, TMin: 0.5},
	}
	for i, cfg := range bad {
		if _, err := NewAnneal(cfg, params, countingEvaluator()); err == nil {
			t.Errorf("case %d: invalid anneal config accepted: %+v", i, cfg)
		}
	}
}

func TestLandscapeValidation(t *testing.T) {
	params := smallParams()
	if _, err := NewLandscape(LandscapeConfig{Eps: -1}, params, countingEvaluator()); err == nil {
		t.Error("negative eps accepted")
	}
	if _, err := NewLandscape(LandscapeConfig{Patience: -1}, params, countingEvaluator()); err == nil {
		t.Error("negative patience accepted")
	}
	solo := params
	solo.PopulationSize = 1
	if _, err := NewLandscape(LandscapeConfig{}, solo, countingEvaluator()); err == nil {
		t.Error("single walker accepted")
	}
}
