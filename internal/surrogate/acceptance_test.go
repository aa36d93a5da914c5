package surrogate_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/evalbackend"
	"repro/internal/ga"
	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/seq"
	"repro/internal/yeastgen"
)

var (
	accOnce   sync.Once
	accEngine *pipe.Engine
)

func accSetup(t testing.TB) *pipe.Engine {
	t.Helper()
	accOnce.Do(func() {
		pr, err := yeastgen.Generate(yeastgen.TestParams())
		if err != nil {
			panic(err)
		}
		eng, err := pipe.New(pr.Proteins, pr.Graph, pipe.Config{}, 0)
		if err != nil {
			panic(err)
		}
		accEngine = eng
	})
	return accEngine
}

func accOptions(pop, maxGens int, seed int64) core.Options {
	return core.Options{
		GA: ga.Params{
			PopulationSize:  pop,
			SeqLen:          60,
			PCrossover:      0.5,
			PMutate:         0.4,
			PCopy:           0.1,
			PMutateAA:       0.05,
			CrossoverMargin: 10,
			Seed:            seed,
		},
		WarmStart:   true,
		Termination: ga.Termination{MinGenerations: maxGens, MaxGenerations: maxGens},
		// The memo cache would blur the eval-budget accounting both runs
		// share; disable it so Evaluated counts every real PIPE call.
		DisableFitnessCache: true,
	}
}

// withSurrogate makes the surrogate pre-scorer opts' evaluation leaf:
// the in-process pool wrapped in evalbackend.WithSurrogate, with a zero
// cfg.Seed inherited from the GA seed. The chain is called through a
// Func leaf, which drops the Designer's context and with it the
// target-first mark: the surrogate trains on non-target scores, so it
// must get full results. accOptions disables the Designer's fitness
// cache, which would otherwise memoize estimates as real scores. The
// returned chain's Stats count the real evaluations (Tasks) and the
// estimates; the Designer's journal sees only the Func leaf, which
// counts every candidate as evaluated.
func withSurrogate(t testing.TB, opts *core.Options, cfg evalbackend.SurrogateConfig) evalbackend.Backend {
	t.Helper()
	pool, err := evalbackend.NewPool(accSetup(t), 0, []int{1, 2}, opts.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed == 0 {
		cfg.Seed = opts.GA.Seed
	}
	chain := evalbackend.WithSurrogate(pool, cfg)
	opts.Backend = evalbackend.Func(func(seqs []seq.Sequence) ([]cluster.Result, error) {
		return chain.EvaluateAll(context.Background(), seqs)
	})
	return chain
}

// budgetedGen is one generation of a budgeted run: its journal record
// and how the surrogate chain answered its candidates.
type budgetedGen struct {
	rec                  obs.GenerationRecord
	evaluated, estimated int
}

// runBudgeted executes a design run that cancels itself once the real
// evaluation budget is exhausted, returning the best-ever fitness, the
// generations, and the total real evaluations spent. With a surrogate
// config the run evaluates through withSurrogate, and each generation's
// real evaluations and estimates are the chain's Stats diffed at each
// journal record; without one, they are the record's own.
func runBudgeted(t *testing.T, opts core.Options, surr *evalbackend.SurrogateConfig, budget int) (float64, []budgetedGen, int) {
	t.Helper()
	eng := accSetup(t)
	var chain evalbackend.Backend
	if surr != nil {
		chain = withSurrogate(t, &opts, *surr)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var gens []budgetedGen
	var last evalbackend.Stats
	spent := 0
	opts.OnJournalRecord = func(rec *obs.GenerationRecord) {
		g := budgetedGen{rec: *rec, evaluated: rec.Evaluated}
		if chain != nil {
			st := chain.Stats()
			delta := st.Sub(last)
			last = st
			g.evaluated = int(delta[evalbackend.Tasks])
			g.estimated = int(delta[evalbackend.SurrogateEstimated])
		}
		gens = append(gens, g)
		spent += g.evaluated
		if spent >= budget {
			cancel()
		}
	}
	d, err := core.NewDesigner(core.Problem{Engine: eng, TargetID: 0, NonTargetIDs: []int{1, 2}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.RunContext(ctx)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
	return res.BestDetail.Fitness, gens, spent
}

// TestFixedBudgetFig7 is the tentpole acceptance test: at a fixed budget
// of real PIPE evaluations, a surrogate-filtered run must reach a
// best-ever fitness at least as good as the unfiltered baseline, while
// evaluating at most 1/5 of each post-warmup generation for real — the
// paper's Figure 7 learning-curve experiment re-run under surrogate
// triage. Both runs share the GA seed, so they explore the same
// candidate stream until filtering diverges them.
func TestFixedBudgetFig7(t *testing.T) {
	const (
		pop    = 32
		seed   = 17
		warmup = 96 // 3 warmup generations of full evaluation
	)

	// Baseline: unfiltered evaluation until the budget is gone. Use its
	// total spend as the budget for the surrogate run, so both sides buy
	// the same number of real PIPE evaluations.
	baseOpts := accOptions(pop, 12, seed)
	baseBest, baseRecs, budget := runBudgeted(t, baseOpts, nil, 12*pop)
	if len(baseRecs) == 0 || budget < 12*pop {
		t.Fatalf("baseline ran %d generations, spent %d", len(baseRecs), budget)
	}

	surrOpts := accOptions(pop, 1000, seed) // generations bounded by the budget, not the cap
	surrCfg := &evalbackend.SurrogateConfig{TopK: 0.10, Explore: 0.05, Warmup: warmup}
	surrBest, surrRecs, surrSpent := runBudgeted(t, surrOpts, surrCfg, budget)

	if surrSpent > budget+pop {
		t.Fatalf("surrogate run overspent: %d real evaluations for a budget of %d", surrSpent, budget)
	}
	if surrBest < baseBest {
		t.Fatalf("surrogate run best %0.6f below unfiltered baseline %0.6f at equal budget %d",
			surrBest, baseBest, budget)
	}
	t.Logf("budget %d: baseline best %0.6f over %d generations; surrogate best %0.6f over %d generations",
		budget, baseBest, len(baseRecs), surrBest, len(surrRecs))

	// The filter must deliver the promised >=5x cut: every post-warmup
	// generation evaluates at most pop/5 candidates for real, and the
	// real evaluations plus estimates cover every generation.
	if len(surrRecs) < len(baseRecs)*3 {
		t.Errorf("surrogate run afforded only %d generations vs baseline %d — filtering is not stretching the budget",
			len(surrRecs), len(baseRecs))
	}
	for i, g := range surrRecs {
		if g.evaluated+g.estimated != g.rec.Population {
			t.Errorf("gen %d: accounted %d of population %d", g.rec.Generation, g.evaluated+g.estimated, g.rec.Population)
		}
		if i >= 4 && g.evaluated > pop/5 {
			t.Errorf("gen %d: %d real evaluations, want <= %d after warmup", g.rec.Generation, g.evaluated, pop/5)
		}
		if i >= 4 && g.estimated == 0 {
			t.Errorf("gen %d: no surrogate estimates after warmup", g.rec.Generation)
		}
	}
}

// TestSurrogateRunDeterministic: two surrogate-filtered runs with the
// same seed must be bit-identical — curve, best sequence, and journal
// accounting. The surrogate subsystem adds no hidden nondeterminism.
func TestSurrogateRunDeterministic(t *testing.T) {
	eng := accSetup(t)
	run := func() (core.Result, []obs.GenerationRecord) {
		opts := accOptions(24, 8, 5)
		chain := withSurrogate(t, &opts, evalbackend.SurrogateConfig{TopK: 0.15, Explore: 0.1, Warmup: 48})
		var recs []obs.GenerationRecord
		opts.OnJournalRecord = func(rec *obs.GenerationRecord) {
			// The chain's running counters stand in for the accounting
			// the Designer's journal carried when it installed the
			// surrogate itself.
			st := chain.Stats()
			rec.Evaluated = int(st[evalbackend.Tasks])
			rec.SurrogateEstimated = int(st[evalbackend.SurrogateEstimated])
			rec.SurrogateTrained = int(st[evalbackend.SurrogateTrained])
			rec.TimeUnixMS = 0
			rec.EvalWallMS = 0
			rec.GenWallMS = 0
			// Window-table and delta telemetry is performance
			// accounting; like wall times, it is not part of the
			// deterministic result.
			rec.WinCacheHits = 0
			rec.WinCacheMisses = 0
			rec.DeltaQueries = 0
			recs = append(recs, *rec)
		}
		d, err := core.NewDesigner(core.Problem{Engine: eng, TargetID: 0, NonTargetIDs: []int{1, 2}}, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, recs
	}
	resA, recsA := run()
	resB, recsB := run()
	if resA.Best.Residues() != resB.Best.Residues() || resA.BestDetail != resB.BestDetail {
		t.Fatalf("best diverged:\nA: %+v %s\nB: %+v %s",
			resA.BestDetail, resA.Best.Residues(), resB.BestDetail, resB.Best.Residues())
	}
	if len(recsA) != len(recsB) {
		t.Fatalf("run lengths diverged: %d vs %d", len(recsA), len(recsB))
	}
	for g := range recsA {
		if recsA[g] != recsB[g] {
			t.Fatalf("journal diverged at generation %d:\nA: %+v\nB: %+v", g, recsA[g], recsB[g])
		}
	}
	if resA.Curve[len(resA.Curve)-1] != resB.Curve[len(resB.Curve)-1] {
		t.Fatal("final curve points diverged")
	}
}

// TestSurrogateOffBitIdentical: a surrogate leaf that never filters must
// leave the design run byte-for-byte what the plain target-first
// pipeline computes.
func TestSurrogateOffBitIdentical(t *testing.T) {
	eng := accSetup(t)
	run := func(surr *evalbackend.SurrogateConfig) core.Result {
		opts := accOptions(16, 5, 9)
		if surr != nil {
			withSurrogate(t, &opts, *surr)
		}
		d, err := core.NewDesigner(core.Problem{Engine: eng, TargetID: 0, NonTargetIDs: []int{1, 2}}, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(nil), run(nil)
	if a.Best.Residues() != b.Best.Residues() || a.BestDetail != b.BestDetail {
		t.Fatal("surrogate-off runs are not reproducible — harness problem")
	}
	// A huge-warmup surrogate run never filters, so it must match the
	// plain pipeline exactly: warmup rounds are pure pass-through, and
	// its full results give the same fitness as target-only ones.
	c := run(&evalbackend.SurrogateConfig{Warmup: 1 << 20})
	if c.Best.Residues() != a.Best.Residues() || c.BestDetail != a.BestDetail {
		t.Fatalf("pass-through surrogate diverged from plain run:\nplain: %+v\nsurr:  %+v", a.BestDetail, c.BestDetail)
	}
	for g := range a.Curve {
		if a.Curve[g] != c.Curve[g] {
			t.Fatalf("curve diverged at generation %d", g)
		}
	}
}
