package surrogate_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/evalbackend"
	"repro/internal/ga"
	"repro/internal/obs"
	"repro/internal/pipe"
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

// runBudgeted executes a design run that cancels itself once the real
// evaluation budget is exhausted, returning the best-ever fitness, the
// journal records, and the total real evaluations spent.
func runBudgeted(t *testing.T, opts core.Options, budget int) (float64, []obs.GenerationRecord, int) {
	t.Helper()
	eng := accSetup(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var recs []obs.GenerationRecord
	spent := 0
	opts.OnJournalRecord = func(rec *obs.GenerationRecord) {
		recs = append(recs, *rec)
		spent += rec.Evaluated
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
	return res.BestDetail.Fitness, recs, spent
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
	baseBest, baseRecs, budget := runBudgeted(t, baseOpts, 12*pop)
	if len(baseRecs) == 0 || budget < 12*pop {
		t.Fatalf("baseline ran %d generations, spent %d", len(baseRecs), budget)
	}

	surrOpts := accOptions(pop, 1000, seed) // generations bounded by the budget, not the cap
	surrOpts.Surrogate = &evalbackend.SurrogateConfig{TopK: 0.10, Explore: 0.05, Warmup: warmup}
	surrBest, surrRecs, surrSpent := runBudgeted(t, surrOpts, budget)

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
	// four-term accounting invariant holds throughout.
	if len(surrRecs) < len(baseRecs)*3 {
		t.Errorf("surrogate run afforded only %d generations vs baseline %d — filtering is not stretching the budget",
			len(surrRecs), len(baseRecs))
	}
	for i, rec := range surrRecs {
		if rec.AccountedCandidates() != rec.Population {
			t.Errorf("gen %d: accounted %d of population %d", rec.Generation, rec.AccountedCandidates(), rec.Population)
		}
		if i >= 4 && rec.Evaluated > pop/5 {
			t.Errorf("gen %d: %d real evaluations, want <= %d after warmup", rec.Generation, rec.Evaluated, pop/5)
		}
		if i >= 4 && rec.SurrogateEstimated == 0 {
			t.Errorf("gen %d: no surrogate estimates after warmup", rec.Generation)
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
		opts.Surrogate = &evalbackend.SurrogateConfig{TopK: 0.15, Explore: 0.1, Warmup: 48}
		var recs []obs.GenerationRecord
		opts.OnJournalRecord = func(rec *obs.GenerationRecord) {
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

// TestSurrogateOffBitIdentical: Options.Surrogate = nil must leave the
// pipeline byte-for-byte unchanged — the opt-in guarantee the golden
// suites rely on.
func TestSurrogateOffBitIdentical(t *testing.T) {
	eng := accSetup(t)
	run := func(surr *evalbackend.SurrogateConfig) core.Result {
		opts := accOptions(16, 5, 9)
		opts.Surrogate = surr
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
	// plain pipeline exactly: warmup rounds are pure pass-through.
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
