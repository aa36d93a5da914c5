package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/evalbackend"
	"repro/internal/ga"
	"repro/internal/pipe"
	"repro/internal/seq"
	"repro/internal/yeastgen"
)

var (
	once   sync.Once
	prot   *yeastgen.Proteome
	engine *pipe.Engine
)

func setup(t testing.TB) (*yeastgen.Proteome, *pipe.Engine) {
	once.Do(func() {
		pr, err := yeastgen.Generate(yeastgen.TestParams())
		if err != nil {
			panic(err)
		}
		eng, err := pipe.New(pr.Proteins, pr.Graph, pipe.Config{}, 0)
		if err != nil {
			panic(err)
		}
		prot, engine = pr, eng
	})
	return prot, engine
}

func TestFitnessFormula(t *testing.T) {
	cases := []struct {
		target float64
		nts    []float64
		want   float64
	}{
		{1, nil, 1},
		{0.5, nil, 0.5},
		{1, []float64{0}, 1},
		{1, []float64{1}, 0},
		{0.8, []float64{0.2, 0.5}, (1 - 0.5) * 0.8},
		{0, []float64{0.3}, 0},
	}
	for i, c := range cases {
		if got := Fitness(c.target, c.nts); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("case %d: Fitness = %f, want %f", i, got, c.want)
		}
	}
}

func TestFitnessProperties(t *testing.T) {
	// fitness in [0,1]; monotone increasing in target, decreasing in max
	// non-target.
	f := func(traw, n1raw, n2raw uint16) bool {
		target := float64(traw) / 65535
		n1 := float64(n1raw) / 65535
		n2 := float64(n2raw) / 65535
		fit := Fitness(target, []float64{n1, n2})
		if fit < 0 || fit > 1 {
			return false
		}
		// Increasing target cannot decrease fitness.
		if Fitness(minf(target+0.1, 1), []float64{n1, n2}) < fit-1e-12 {
			return false
		}
		// Increasing a non-target cannot increase fitness.
		if Fitness(target, []float64{minf(n1+0.1, 1), n2}) > fit+1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func TestMaxAndMeanScore(t *testing.T) {
	if MaxScore(nil) != 0 || MeanScore(nil) != 0 {
		t.Error("empty slices should give 0")
	}
	if MaxScore([]float64{0.2, 0.7, 0.4}) != 0.7 {
		t.Error("MaxScore wrong")
	}
	if got := MeanScore([]float64{0.2, 0.4}); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("MeanScore = %f", got)
	}
}

func TestFitnessGrid(t *testing.T) {
	grid := FitnessGrid(11)
	if len(grid) != 11 || len(grid[0]) != 11 {
		t.Fatalf("grid shape %dx%d", len(grid), len(grid[0]))
	}
	// Corners of Figure 2.
	if grid[0][10] != 1 { // maxNT=0, target=1
		t.Errorf("peak = %f, want 1", grid[0][10])
	}
	if grid[10][10] != 0 || grid[0][0] != 0 || grid[10][0] != 0 {
		t.Error("zero corners wrong")
	}
	// Monotone: increasing target raises fitness at fixed maxNT.
	for i := 0; i < 11; i++ {
		for j := 1; j < 11; j++ {
			if grid[i][j] < grid[i][j-1] {
				t.Fatalf("grid not monotone in target at (%d,%d)", i, j)
			}
		}
	}
	if g := FitnessGrid(0); len(g) != 2 {
		t.Error("degenerate resolution not clamped")
	}
}

func designOpts(pop, gens int, seed int64) Options {
	gp := ga.DefaultParams()
	gp.PopulationSize = pop
	gp.SeqLen = 120
	gp.Seed = seed
	return Options{
		GA:          gp,
		Cluster:     cluster.Config{Workers: 2, ThreadsPerWorker: 2},
		Termination: ga.Termination{MaxGenerations: gens},
	}
}

func TestNewDesignerValidation(t *testing.T) {
	_, eng := setup(t)
	if _, err := NewDesigner(Problem{}, designOpts(10, 2, 1)); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := NewDesigner(Problem{Engine: eng, TargetID: -1}, designOpts(10, 2, 1)); err == nil {
		t.Error("bad target accepted")
	}
	bad := designOpts(1, 2, 1) // population too small
	if _, err := NewDesigner(Problem{Engine: eng, TargetID: 0}, bad); err == nil {
		t.Error("bad GA params accepted")
	}
}

func TestDesignRunShape(t *testing.T) {
	pr, eng := setup(t)
	var nts []int
	for _, id := range pr.ComponentMembers(pr.Component(0)) {
		if id != 0 && len(nts) < 5 {
			nts = append(nts, id)
		}
	}
	calls := 0
	opts := designOpts(20, 6, 42)
	opts.OnGeneration = func(cp CurvePoint) { calls++ }
	table := eng.WindowCacheStats()
	res, err := Design(eng, 0, nts, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations != 6 || len(res.Curve) != 6 || calls != 6 {
		t.Fatalf("generations %d, curve %d, callbacks %d", res.Generations, len(res.Curve), calls)
	}
	// The run looked its candidates' windows up in the window table and
	// left it as built: it holds the natural windows and nothing else.
	if st := eng.WindowCacheStats(); st.Entries != table.Entries || st.Hits+st.Misses == table.Hits+table.Misses {
		t.Errorf("window table %+v after a design run, %+v before", st, table)
	}
	for g, cp := range res.Curve {
		if cp.Generation != g {
			t.Errorf("curve point %d has generation %d", g, cp.Generation)
		}
		if cp.Fitness < 0 || cp.Fitness > 1 {
			t.Errorf("fitness %f out of range", cp.Fitness)
		}
		wantFit := (1 - cp.MaxNonTarget) * cp.Target
		if math.Abs(cp.Fitness-wantFit) > 1e-9 {
			t.Errorf("curve point %d: fitness %f != decomposition %f", g, cp.Fitness, wantFit)
		}
		if cp.AvgNonTarget > cp.MaxNonTarget {
			t.Errorf("avg non-target %f > max %f", cp.AvgNonTarget, cp.MaxNonTarget)
		}
	}
	if res.Best.Len() != 120 {
		t.Errorf("best sequence length %d", res.Best.Len())
	}
}

// TestRunContextCancelStopsWithinOneGeneration proves the service
// contract: cancellation fired during generation g's callback stops the
// run before generation g+1 begins, returning the partial result.
func TestRunContextCancelStopsWithinOneGeneration(t *testing.T) {
	_, eng := setup(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAfter = 3
	gens := 0
	opts := designOpts(10, 100, 1)
	opts.OnGeneration = func(cp CurvePoint) {
		gens++
		if gens == cancelAfter {
			cancel()
		}
	}
	d, err := NewDesigner(Problem{Engine: eng, TargetID: 0, NonTargetIDs: []int{1}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext error = %v, want context.Canceled", err)
	}
	if res.Generations != cancelAfter {
		t.Errorf("ran %d generations after cancel at %d, want exactly %d",
			res.Generations, cancelAfter, cancelAfter)
	}
	if len(res.Curve) != cancelAfter {
		t.Errorf("partial curve has %d points, want %d", len(res.Curve), cancelAfter)
	}
}

// TestRunContextAlreadyCancelled: a pre-cancelled context runs nothing.
func TestRunContextAlreadyCancelled(t *testing.T) {
	_, eng := setup(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d, err := NewDesigner(Problem{Engine: eng, TargetID: 0}, designOpts(10, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext error = %v, want context.Canceled", err)
	}
	if res.Generations != 0 {
		t.Errorf("pre-cancelled run executed %d generations", res.Generations)
	}
}

func TestDesignerSingleUse(t *testing.T) {
	_, eng := setup(t)
	d, err := NewDesigner(Problem{Engine: eng, TargetID: 0}, designOpts(10, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(); err == nil {
		t.Error("second Run succeeded")
	}
}

func TestDesignDeterministicUnderSeed(t *testing.T) {
	pr, eng := setup(t)
	nts := []int{1, 2, 3}
	run := func() Result {
		res, err := Design(eng, 5, nts, designOpts(15, 4, 7))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for g := range a.Curve {
		if a.Curve[g].Fitness != b.Curve[g].Fitness {
			t.Fatalf("gen %d: %f vs %f", g, a.Curve[g].Fitness, b.Curve[g].Fitness)
		}
	}
	if a.Best.Residues() != b.Best.Residues() {
		t.Error("best sequences differ under same seed")
	}
	_ = pr
}

// TestDesignImproves is the package's core behavioural test: the GA must
// lift fitness well above the random baseline within a modest budget.
func TestDesignImproves(t *testing.T) {
	if testing.Short() {
		t.Skip("GA improvement run skipped in -short mode")
	}
	pr, eng := setup(t)
	// Rare-motif target (the paper's candidate-selection criterion favors
	// targets whose design problem is well-posed).
	carriers := map[int]int{}
	for i := range pr.Proteins {
		for _, m := range pr.Motifs(i) {
			carriers[m]++
		}
	}
	target := -1
	bestCar := 1 << 30
	for i := range pr.Proteins {
		ms := pr.Motifs(i)
		if len(ms) != 1 {
			continue
		}
		if carriers[pr.ComplementOf(ms[0])] < 4 {
			continue
		}
		if carriers[ms[0]] < bestCar {
			bestCar, target = carriers[ms[0]], i
		}
	}
	if target < 0 {
		t.Skip("no suitable rare-motif target in test proteome")
	}
	var nts []int
	for _, id := range pr.ComponentMembers(pr.Component(target)) {
		if id != target && len(nts) < 8 {
			nts = append(nts, id)
		}
	}
	opts := designOpts(80, 120, 3)
	opts.GA.SeqLen = 130
	opts.WarmStart = true
	res, err := Design(eng, target, nts, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestDetail.Fitness < 0.15 {
		t.Errorf("design fitness %.3f did not improve above baseline", res.BestDetail.Fitness)
	}
	if res.BestDetail.Target <= res.BestDetail.MaxNonTarget {
		t.Errorf("design is not specific: target %.3f <= max non-target %.3f",
			res.BestDetail.Target, res.BestDetail.MaxNonTarget)
	}
}

// TestEvaluateHookMatchesInProcessPool: plugging an external evaluation
// function in through Options.Backend must not change the design outcome
// — the GA sees the same scores either way.
func TestEvaluateHookMatchesInProcessPool(t *testing.T) {
	_, eng := setup(t)
	ref, err := Design(eng, 0, []int{1, 2}, designOpts(30, 8, 5))
	if err != nil {
		t.Fatal(err)
	}

	hooked := designOpts(30, 8, 5)
	pool, err := cluster.New(eng, 0, []int{1, 2}, hooked.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	hooked.Backend = evalbackend.Func(func(seqs []seq.Sequence) ([]cluster.Result, error) {
		calls++
		return pool.EvaluateAll(seqs), nil
	})
	got, err := Design(eng, 0, []int{1, 2}, hooked)
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("evaluation function never called")
	}
	if got.Best.Residues() != ref.Best.Residues() || got.BestDetail != ref.BestDetail {
		t.Error("function backend changed the design outcome")
	}
}

// TestBackendShardedGolden: a full design run over a sharded composite
// of two in-process pool backends must reproduce the default single-pool
// run exactly — curve, best design and detail. Sharding is a dispatch
// concern and must be invisible to the GA.
func TestBackendShardedGolden(t *testing.T) {
	_, eng := setup(t)
	ref, err := Design(eng, 0, []int{1, 2}, designOpts(24, 8, 5))
	if err != nil {
		t.Fatal(err)
	}

	shards := make([]evalbackend.Backend, 2)
	for i := range shards {
		pb, err := evalbackend.NewPool(eng, 0, []int{1, 2}, cluster.Config{Workers: 1, ThreadsPerWorker: 2})
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = pb
	}
	sh, err := evalbackend.NewSharded(shards...)
	if err != nil {
		t.Fatal(err)
	}
	opts := designOpts(24, 8, 5)
	opts.Backend = sh
	got, err := Design(eng, 0, []int{1, 2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("sharded backend changed the design outcome:\ngot:  %+v\nref:  %+v", got, ref)
	}
	if st := sh.Stats(); st.Tasks == 0 || st.Rounds == 0 {
		t.Fatalf("sharded backend never evaluated: %+v", st)
	}
}

// TestEvaluateHookErrorAbortsRun: a backend failure (master closed,
// network gone) must surface as the run's error instead of silently
// evolving against all-zero fitness.
func TestEvaluateHookErrorAbortsRun(t *testing.T) {
	_, eng := setup(t)
	opts := designOpts(20, 50, 3)
	boom := errors.New("backend down")
	gen := 0
	opts.Backend = evalbackend.Func(func(seqs []seq.Sequence) ([]cluster.Result, error) {
		gen++
		if gen > 2 {
			return nil, boom
		}
		results := make([]cluster.Result, len(seqs))
		for i := range results {
			results[i] = cluster.Result{Index: i, TargetScore: 0.5}
		}
		return results, nil
	})
	if _, err := Design(eng, 0, []int{1}, opts); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the backend error", err)
	}
}

// TestDesignDefaultCap: with no termination criterion set, the one loop
// caps the run at 100 generations.
func TestDesignDefaultCap(t *testing.T) {
	_, eng := setup(t)
	opts := designOpts(10, 0, 3)
	opts.Backend = evalbackend.Func(func(seqs []seq.Sequence) ([]cluster.Result, error) {
		return make([]cluster.Result, len(seqs)), nil
	})
	res, err := Design(eng, 0, []int{1}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations != 100 {
		t.Errorf("default cap produced %d generations", res.Generations)
	}
}

// TestEvaluateHookLengthMismatch: a backend returning the wrong result
// count is a protocol violation, not a scoring outcome.
func TestEvaluateHookLengthMismatch(t *testing.T) {
	_, eng := setup(t)
	opts := designOpts(20, 50, 3)
	opts.Backend = evalbackend.Func(func(seqs []seq.Sequence) ([]cluster.Result, error) {
		return make([]cluster.Result, 1), nil
	})
	if _, err := Design(eng, 0, []int{1}, opts); err == nil {
		t.Fatal("short result slice accepted")
	}
}

// TestEvaluateHookAbandonedTaskScoresZero: a per-task Err (a candidate
// the cluster abandoned after MaxAttempts) zeroes that candidate's
// fitness for the generation; everyone else scores normally.
func TestEvaluateHookAbandonedTaskScoresZero(t *testing.T) {
	_, eng := setup(t)
	opts := designOpts(10, 2, 7)
	pool, err := cluster.New(eng, 0, []int{1}, opts.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	opts.Backend = evalbackend.Func(func(seqs []seq.Sequence) ([]cluster.Result, error) {
		results := pool.EvaluateAll(seqs)
		results[0] = cluster.Result{Index: 0, Attempts: 3, Err: errors.New("abandoned")}
		return results, nil
	})
	d, err := NewDesigner(Problem{Engine: eng, TargetID: 0, NonTargetIDs: []int{1}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	seqs := make([]seq.Sequence, 4)
	for i := range seqs {
		seqs[i] = seq.Random(rng, "cand", 100, seq.YeastComposition())
	}
	fits := d.evaluateAll(seqs)
	if d.evalErr != nil {
		t.Fatal(d.evalErr)
	}
	if fits[0] != 0 || d.details[0] != (Detail{}) {
		t.Errorf("abandoned candidate scored %f (%+v), want zero", fits[0], d.details[0])
	}
	for i := 1; i < len(seqs); i++ {
		want := Fitness(eng.Score(seqs[i], 0, 1), []float64{eng.Score(seqs[i], 1, 1)})
		if fits[i] != want {
			t.Errorf("candidate %d: fitness %f, want %f", i, fits[i], want)
		}
	}
}
