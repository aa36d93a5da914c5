package ga

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/seq"
)

// countingEvaluator scores sequences by the fraction of 'A' residues —
// a smooth toy landscape the GA must climb.
func countingEvaluator() Evaluator {
	return EvaluatorFunc(func(seqs []seq.Sequence) []float64 {
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

func smallParams() Params {
	p := DefaultParams()
	p.PopulationSize = 40
	p.SeqLen = 60
	return p
}

func TestNewValidation(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.PopulationSize = 1 },
		func(p *Params) { p.PCopy = -0.1; p.PMutate = 0.6 },
		func(p *Params) { p.PCopy = 0.5 }, // sum != 1
		func(p *Params) { p.PMutateAA = 1.5 },
		func(p *Params) { p.SeqLen = 5 },
	}
	for i, mutate := range bad {
		p := smallParams()
		mutate(&p)
		if _, err := New(p, countingEvaluator()); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
	if _, err := New(smallParams(), nil); err == nil {
		t.Error("nil evaluator accepted")
	}
}

// TestSlotRNGMatchesFreshSource pins the one-source-per-engine slotRNG
// to the stream a newly allocated source yields for the same slot, for
// a grid of (seed, gen, slot) visited in one engine's lifetime — with a
// different number of draws taken before each reseed, so nothing of the
// previous slot's state can show through.
func TestSlotRNGMatchesFreshSource(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
		p := smallParams()
		p.Seed = seed
		e, err := New(p, countingEvaluator())
		if err != nil {
			t.Fatal(err)
		}
		for gen := 0; gen < 4; gen++ {
			for slot := 0; slot < 25; slot++ {
				got := e.slotRNG(gen, slot)
				want := rand.New(rand.NewSource(slotSeed(seed, gen, slot)))
				for draw := 0; draw < 3+(gen+slot)%5; draw++ {
					if g, w := got.Int63(), want.Int63(); g != w {
						t.Fatalf("seed %d gen %d slot %d draw %d: Int63 %d, fresh source %d", seed, gen, slot, draw, g, w)
					}
					if g, w := got.Float64(), want.Float64(); g != w {
						t.Fatalf("seed %d gen %d slot %d draw %d: Float64 %v, fresh source %v", seed, gen, slot, draw, g, w)
					}
					if g, w := got.Intn(60), want.Intn(60); g != w {
						t.Fatalf("seed %d gen %d slot %d draw %d: Intn %d, fresh source %d", seed, gen, slot, draw, g, w)
					}
				}
			}
		}
	}
}

func TestInitPopulation(t *testing.T) {
	e, err := New(smallParams(), countingEvaluator())
	if err != nil {
		t.Fatal(err)
	}
	e.InitPopulation()
	pop := e.Population()
	if len(pop) != 40 {
		t.Fatalf("population size %d", len(pop))
	}
	distinct := map[string]bool{}
	for _, ind := range pop {
		if ind.Seq.Len() != 60 {
			t.Fatalf("individual length %d", ind.Seq.Len())
		}
		distinct[ind.Seq.Residues()] = true
	}
	if len(distinct) < 35 {
		t.Errorf("only %d distinct individuals in random init", len(distinct))
	}
}

func TestSetPopulation(t *testing.T) {
	e, _ := New(smallParams(), countingEvaluator())
	seqs := make([]seq.Sequence, 40)
	for i := range seqs {
		seqs[i] = seq.MustNew("x", strings.Repeat("V", 60))
	}
	if err := e.SetPopulation(seqs); err != nil {
		t.Fatal(err)
	}
	if err := e.SetPopulation(seqs[:10]); err == nil {
		t.Error("wrong-size population accepted")
	}
}

func TestFitnessImprovesOnToyLandscape(t *testing.T) {
	e, _ := New(smallParams(), countingEvaluator())
	e.InitPopulation()
	var first, last Stats
	for g := 0; g < 40; g++ {
		st := e.Step()
		if g == 0 {
			first = st
		}
		last = st
	}
	if last.BestEver <= first.Best {
		t.Errorf("no improvement: first best %.3f, final best-ever %.3f", first.Best, last.BestEver)
	}
	// A-fraction should climb well above the random baseline (~5.5%).
	if last.BestEver < 0.25 {
		t.Errorf("best-ever %.3f below expected improvement", last.BestEver)
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	run := func() []Stats {
		e, _ := New(smallParams(), countingEvaluator())
		e.InitPopulation()
		var hist []Stats
		for g := 0; g < 10; g++ {
			hist = append(hist, e.Step())
		}
		return hist
	}
	a, b := run(), run()
	for g := range a {
		if a[g].Best != b[g].Best || a[g].Mean != b[g].Mean {
			t.Fatalf("gen %d: runs diverged (%.6f vs %.6f)", g, a[g].Best, b[g].Best)
		}
	}
	p := smallParams()
	p.Seed = 99
	e2, _ := New(p, countingEvaluator())
	e2.InitPopulation()
	if e2.Step().Best == a[0].Best {
		t.Error("different seeds produced identical first generation")
	}
}

func TestStatsBookkeeping(t *testing.T) {
	e, _ := New(smallParams(), countingEvaluator())
	e.InitPopulation()
	st := e.Step()
	if st.Generation != 0 || !st.NewBestFound {
		t.Errorf("first generation stats: %+v", st)
	}
	if st.Best < st.Mean {
		t.Error("best below mean")
	}
	if st.BestEver != st.Best {
		t.Error("best-ever != best in first generation")
	}
	best, gen := e.BestEver()
	if gen != 0 || best.Fitness != st.Best {
		t.Errorf("BestEver() = %v, %d", best.Fitness, gen)
	}
	if e.Generation() != 1 {
		t.Errorf("Generation() = %d after one step", e.Generation())
	}
}

func TestBestEverMonotone(t *testing.T) {
	e, _ := New(smallParams(), countingEvaluator())
	e.InitPopulation()
	prev := -1.0
	for g := 0; g < 25; g++ {
		st := e.Step()
		if st.BestEver < prev {
			t.Fatalf("gen %d: best-ever decreased %.4f -> %.4f", g, prev, st.BestEver)
		}
		prev = st.BestEver
	}
}

func TestSelectionPressure(t *testing.T) {
	// With one dominant individual, most children should descend from it.
	p := smallParams()
	p.PCopy = 1
	p.PMutate = 0
	p.PCrossover = 0
	marker := strings.Repeat("W", 60)
	eval := EvaluatorFunc(func(seqs []seq.Sequence) []float64 {
		out := make([]float64, len(seqs))
		for i, s := range seqs {
			if s.Residues() == marker {
				out[i] = 1
			} else {
				out[i] = 0.0001
			}
		}
		return out
	})
	e, _ := New(p, eval)
	seqs := make([]seq.Sequence, p.PopulationSize)
	for i := range seqs {
		seqs[i] = seq.MustNew("bg", strings.Repeat("V", 60))
	}
	seqs[7] = seq.MustNew("marker", marker)
	if err := e.SetPopulation(seqs); err != nil {
		t.Fatal(err)
	}
	e.Step()
	count := 0
	for _, ind := range e.Population() {
		if ind.Seq.Residues() == marker {
			count++
		}
	}
	// Marker carries ~99.6% of total fitness; copies should dominate.
	if count < p.PopulationSize*3/4 {
		t.Errorf("dominant individual copied only %d/%d times", count, p.PopulationSize)
	}
}

func TestZeroFitnessUniformSelection(t *testing.T) {
	p := smallParams()
	eval := EvaluatorFunc(func(seqs []seq.Sequence) []float64 {
		return make([]float64, len(seqs)) // all zero
	})
	e, _ := New(p, eval)
	e.InitPopulation()
	st := e.Step() // must not panic or loop
	if st.Best != 0 || st.Mean != 0 {
		t.Errorf("zero-fitness stats: %+v", st)
	}
	if len(e.Population()) != p.PopulationSize {
		t.Error("population size changed")
	}
}

func TestPopulationSizeInvariant(t *testing.T) {
	f := func(seedRaw int64, pc, pm uint8) bool {
		p := smallParams()
		p.Seed = seedRaw
		// Random operation mix.
		a := float64(pc%100) / 100
		b := float64(pm%100) / 100 * (1 - a)
		p.PCopy, p.PMutate, p.PCrossover = a, b, 1-a-b
		e, err := New(p, countingEvaluator())
		if err != nil {
			return true // invalid mixes skipped
		}
		e.InitPopulation()
		for g := 0; g < 3; g++ {
			e.Step()
			if len(e.Population()) != p.PopulationSize {
				return false
			}
			for _, ind := range e.Population() {
				if !seq.Valid(ind.Seq.Residues()) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestTermination(t *testing.T) {
	cases := []struct {
		term       Termination
		g, lastImp int
		want       bool
	}{
		{Termination{MaxGenerations: 10}, 9, 9, true},
		{Termination{MaxGenerations: 10}, 8, 0, false},
		{Termination{MinGenerations: 250, StallGenerations: 50}, 100, 10, false},
		{Termination{MinGenerations: 250, StallGenerations: 50}, 299, 100, true},
		{Termination{MinGenerations: 250, StallGenerations: 50}, 260, 240, false},
		{Termination{MinGenerations: 0, StallGenerations: 5}, 6, 0, true},
	}
	for i, c := range cases {
		if got := c.term.ShouldStop(c.g, c.lastImp); got != c.want {
			t.Errorf("case %d: ShouldStop(%d,%d) = %v", i, c.g, c.lastImp, got)
		}
	}
}

// stepsUntilStop steps e until term fires and returns the number of
// generations executed (capped, so a criterion that never fires fails
// the caller instead of hanging it).
func stepsUntilStop(e *Engine, term Termination) int {
	for steps := 1; steps <= 1000; steps++ {
		st := e.Step()
		if term.ShouldStop(st.Generation, st.BestEverGen) {
			return steps
		}
	}
	return -1
}

func TestRunStopsOnStall(t *testing.T) {
	// Constant fitness: best never improves after generation 0, so the
	// criterion must fire right after the stall window.
	eval := EvaluatorFunc(func(seqs []seq.Sequence) []float64 {
		out := make([]float64, len(seqs))
		for i := range out {
			out[i] = 0.5
		}
		return out
	})
	e, _ := New(smallParams(), eval)
	e.InitPopulation()
	if n := stepsUntilStop(e, Termination{MinGenerations: 5, StallGenerations: 10}); n != 11 {
		t.Errorf("run length %d, want 11 (gen 0 + 10 stalled)", n)
	}
}

func TestRunCallback(t *testing.T) {
	// A hard cap fires after exactly that many steps, however often the
	// best improves on the way.
	e, _ := New(smallParams(), countingEvaluator())
	e.InitPopulation()
	if n := stepsUntilStop(e, Termination{MaxGenerations: 7}); n != 7 {
		t.Errorf("cap 7 stopped after %d steps", n)
	}
}

func TestRunDefaultCap(t *testing.T) {
	// The zero Termination never fires: the default cap belongs to the
	// loop's one driver (core.Designer), not to the criterion.
	e, _ := New(smallParams(), countingEvaluator())
	e.InitPopulation()
	if n := stepsUntilStop(e, Termination{}); n != -1 {
		t.Errorf("zero Termination stopped after %d steps", n)
	}
}

func TestStepWithoutInitAutoInits(t *testing.T) {
	e, _ := New(smallParams(), countingEvaluator())
	st := e.Step()
	if st.Generation != 0 || len(e.Population()) != 40 {
		t.Error("Step without InitPopulation failed to bootstrap")
	}
}

func TestLastEvaluated(t *testing.T) {
	e, _ := New(smallParams(), countingEvaluator())
	if e.LastEvaluated() != nil {
		t.Error("LastEvaluated non-nil before first Step")
	}
	e.InitPopulation()
	before := make([]string, 0, 40)
	for _, ind := range e.Population() {
		before = append(before, ind.Seq.Residues())
	}
	st := e.Step()
	evaluated := e.LastEvaluated()
	if len(evaluated) != 40 {
		t.Fatalf("LastEvaluated has %d individuals", len(evaluated))
	}
	// Same sequences that were evaluated, now with fitness attached.
	bestFit := 0.0
	for i, ind := range evaluated {
		if ind.Seq.Residues() != before[i] {
			t.Fatal("LastEvaluated sequences differ from the evaluated generation")
		}
		if ind.Fitness > bestFit {
			bestFit = ind.Fitness
		}
	}
	if bestFit != st.Best {
		t.Errorf("LastEvaluated best %f != Stats.Best %f", bestFit, st.Best)
	}
}

func TestProvenanceTracksAncestry(t *testing.T) {
	e, err := New(smallParams(), countingEvaluator())
	if err != nil {
		t.Fatal(err)
	}
	e.InitPopulation()
	if e.Provenance() != nil {
		t.Fatal("initial population has provenance")
	}
	for step := 0; step < 3; step++ {
		prev := append([]Individual(nil), e.Population()...)
		e.Step()
		prov := e.Provenance()
		pop := e.Population()
		if len(prov) != len(pop) {
			t.Fatalf("step %d: %d provenance records for %d individuals", step, len(prov), len(pop))
		}
		ops := map[Op]int{}
		for i, p := range prov {
			ops[p.Op]++
			if p.ParentA < 0 || p.ParentA >= len(prev) {
				t.Fatalf("slot %d: parent A %d out of range", i, p.ParentA)
			}
			pa := prev[p.ParentA].Seq
			switch p.Op {
			case OpCopy:
				if pop[i].Seq.Residues() != pa.Residues() {
					t.Fatalf("slot %d: copy differs from parent", i)
				}
				if p.ParentB != -1 {
					t.Fatalf("slot %d: copy has second parent %d", i, p.ParentB)
				}
			case OpMutate:
				if pop[i].Seq.Len() != pa.Len() {
					t.Fatalf("slot %d: mutant length changed", i)
				}
				if p.ParentB != -1 {
					t.Fatalf("slot %d: mutant has second parent %d", i, p.ParentB)
				}
			case OpCrossover:
				if p.ParentB < 0 || p.ParentB >= len(prev) {
					t.Fatalf("slot %d: parent B %d out of range", i, p.ParentB)
				}
				// The primary parent contributes the prefix (cut points sit
				// at least CrossoverMargin in, so prefixes are non-trivial).
				if pop[i].Seq.Residues()[:e.params.CrossoverMargin] != pa.Residues()[:e.params.CrossoverMargin] {
					t.Fatalf("slot %d: crossover prefix not from primary parent", i)
				}
			default:
				t.Fatalf("slot %d: unexpected op %d", i, p.Op)
			}
		}
		if ops[OpCopy] == 0 || ops[OpMutate] == 0 || ops[OpCrossover] == 0 {
			t.Fatalf("step %d: operation mix missing a kind: %v", step, ops)
		}
	}
	// Supplied and restored populations drop ancestry.
	seqs := make([]seq.Sequence, len(e.Population()))
	for i, ind := range e.Population() {
		seqs[i] = ind.Seq
	}
	if err := e.SetPopulation(seqs); err != nil {
		t.Fatal(err)
	}
	if e.Provenance() != nil {
		t.Fatal("SetPopulation kept provenance")
	}
	e.Step()
	best, bestGen := e.BestEver()
	if err := e.Restore(e.Generation(), seqs, best, bestGen); err != nil {
		t.Fatal(err)
	}
	if e.Provenance() != nil {
		t.Fatal("Restore kept provenance")
	}
}
