// Benchmarks regenerating each of the paper's tables and figures (see
// DESIGN.md §4 for the exhibit index) plus ablations of the design
// choices DESIGN.md §7 calls out. Run:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkFigN/BenchmarkTableN measures the work behind that
// exhibit at smoke scale; cmd/experiments produces the full-scale data.
package repro

import (
	"context"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bgqsim"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/evalbackend"
	"repro/internal/ga"
	"repro/internal/netcluster"
	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/search"
	"repro/internal/seq"
	"repro/internal/simindex"
	"repro/internal/submat"
	"repro/internal/surrogate"
	"repro/internal/wetlab"
	"repro/internal/yeastgen"
)

var (
	benchOnce   sync.Once
	benchProt   *yeastgen.Proteome
	benchEngine *pipe.Engine
)

func benchSetup(b testing.TB) (*yeastgen.Proteome, *pipe.Engine) {
	b.Helper()
	benchOnce.Do(func() {
		pr, err := yeastgen.Generate(yeastgen.TestParams())
		if err != nil {
			panic(err)
		}
		eng, err := pipe.New(pr.Proteins, pr.Graph, pipe.Config{}, 0)
		if err != nil {
			panic(err)
		}
		benchProt, benchEngine = pr, eng
	})
	return benchProt, benchEngine
}

// BenchmarkFig2FitnessGrid regenerates the Figure 2 fitness heat map.
func BenchmarkFig2FitnessGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		grid := core.FitnessGrid(101)
		if grid[0][100] != 1 {
			b.Fatal("fitness peak wrong")
		}
	}
}

// BenchmarkFig3ThreadScaling measures the Figure 3 unit of work — one
// full worker task (preprocess a candidate, PIPE against the whole
// proteome) — for the easiest and hardest difficulty classes.
func BenchmarkFig3ThreadScaling(b *testing.B) {
	pr, eng := benchSetup(b)
	all := make([]int, len(pr.Proteins))
	for i := range all {
		all[i] = i
	}
	for _, d := range []yeastgen.Difficulty{yeastgen.DifficultyEasiest, yeastgen.DifficultyHardest} {
		b.Run(d.PaperName(), func(b *testing.B) {
			q := pr.DifficultySequence(rand.New(rand.NewSource(1)), d, 200)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.ScoreMany(q, all, 1)
			}
		})
	}
}

// BenchmarkFig4NodeModel evaluates the Figure 4 thread-speedup model.
func BenchmarkFig4NodeModel(b *testing.B) {
	node := bgqsim.BGQNode()
	for i := 0; i < b.N; i++ {
		for t := 1; t <= 64; t++ {
			if node.Speedup(t) <= 0 {
				b.Fatal("bad speedup")
			}
		}
	}
}

// BenchmarkFig5WorkerScaling runs the Figure 5/6 discrete-event
// simulation of one 1024-node generation.
func BenchmarkFig5WorkerScaling(b *testing.B) {
	w := bgqsim.PaperPopulations()["gen250"]
	for i := 0; i < b.N; i++ {
		p := bgqsim.DefaultClusterParams(1024)
		p.Seed = int64(i + 1)
		if _, err := bgqsim.SimulateGeneration(p, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6SpeedupCurve runs the full Figure 6 node sweep.
func BenchmarkFig6SpeedupCurve(b *testing.B) {
	w := bgqsim.PaperPopulations()["gen1"]
	counts := bgqsim.PaperNodeCounts()
	for i := 0; i < b.N; i++ {
		if _, _, err := bgqsim.SpeedupCurve(counts, bgqsim.DefaultClusterParams(64), w); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTuningRun is one Table 1-3 cell: a short design run with a given
// parameter set and seed.
func benchTuningRun(b *testing.B, pCross, pMut float64, seed int64) {
	pr, eng := benchSetup(b)
	target := pr.WetlabTargetIDs()[0]
	gp := ga.Params{
		PopulationSize:  24,
		PCopy:           0.10,
		PMutate:         pMut,
		PCrossover:      pCross,
		PMutateAA:       0.05,
		SeqLen:          130,
		CrossoverMargin: 10,
		Seed:            seed,
	}
	var nts []int
	for _, id := range pr.ComponentMembers(pr.Component(target)) {
		if id != target && len(nts) < 5 {
			nts = append(nts, id)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gp.Seed = seed + int64(i)
		_, err := core.Design(eng, target, nts, core.Options{
			GA:          gp,
			WarmStart:   true,
			Cluster:     cluster.Config{Workers: 1, ThreadsPerWorker: 1},
			Termination: ga.Termination{MaxGenerations: 5},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1ParamTuning exercises the Table 1 grid's balanced set.
func BenchmarkTable1ParamTuning(b *testing.B) { benchTuningRun(b, 0.45, 0.45, 100) }

// BenchmarkTable2ParamTuning exercises the Table 2 grid's
// crossover-heavy set.
func BenchmarkTable2ParamTuning(b *testing.B) { benchTuningRun(b, 0.75, 0.15, 200) }

// BenchmarkTable3ParamTuning exercises the Table 3 grid's mutation-heavy
// set.
func BenchmarkTable3ParamTuning(b *testing.B) { benchTuningRun(b, 0.15, 0.75, 300) }

// BenchmarkFig7LearningCurve measures a production-parameter design
// generation (the unit the Figure 7 curves are made of).
func BenchmarkFig7LearningCurve(b *testing.B) {
	pr, eng := benchSetup(b)
	target := pr.WetlabTargetIDs()[0]
	var nts []int
	for _, id := range pr.ComponentMembers(pr.Component(target)) {
		if id != target && len(nts) < 8 {
			nts = append(nts, id)
		}
	}
	gp := ga.DefaultParams()
	gp.PopulationSize = 40
	gp.SeqLen = 130
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gp.Seed = int64(i + 1)
		_, err := core.Design(eng, target, nts, core.Options{
			GA:          gp,
			WarmStart:   true,
			Cluster:     cluster.Config{Workers: 1, ThreadsPerWorker: 1},
			Termination: ga.Termination{MaxGenerations: 3},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// benchOverheadEval is a deterministic evaluator cheap enough that the
// generation loop's own bookkeeping dominates each op — the quantity
// BenchmarkSearcherOverhead compares across the Searcher seam.
func benchOverheadEval(seqs []seq.Sequence) []float64 {
	out := make([]float64, len(seqs))
	for i, s := range seqs {
		h := 0.0
		for _, r := range s.Residues() {
			h = h*0.99 + float64(r)
		}
		out[i] = h / (h + 1e6)
	}
	return out
}

// BenchmarkSearcherOverhead runs the same GA twice: driving ga.Engine
// directly (the pre-refactor loop) and through the search.Searcher
// adapter. cmd/benchpipe -check gates the searcher variant to within 2%
// of the direct loop, bounding the seam's cost.
func BenchmarkSearcherOverhead(b *testing.B) {
	gp := ga.DefaultParams()
	gp.PopulationSize = 64
	gp.SeqLen = 60
	const gens = 40
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gp.Seed = int64(i + 1)
			eng, err := ga.New(gp, ga.EvaluatorFunc(benchOverheadEval))
			if err != nil {
				b.Fatal(err)
			}
			eng.InitPopulation()
			for g := 0; g < gens; g++ {
				eng.Step()
			}
		}
	})
	b.Run("searcher", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gp.Seed = int64(i + 1)
			s, err := search.New(search.Config{}, gp, ga.EvaluatorFunc(benchOverheadEval))
			if err != nil {
				b.Fatal(err)
			}
			s.InitPopulation()
			for g := 0; g < gens; g++ {
				s.Step()
			}
		}
	})
}

// windowsSearchedPerCandidate runs a fixed 10-generation GA at the
// paper's operator mix through a pool on a fresh engine and counts the
// windows the engine searched per candidate evaluated: window-table
// misses (the batch path) plus the windows delta builds did not lift.
// secondParents says whether crossover children name both parents or,
// as before this count existed, only the one their prefix came from.
func windowsSearchedPerCandidate(t *testing.T, secondParents bool) float64 {
	pr, _ := benchSetup(t)
	eng, err := pipe.New(pr.Proteins, pr.Graph, pipe.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := cluster.New(eng, 0, []int{1, 2, 3}, cluster.Config{Workers: 1, ThreadsPerWorker: 1})
	if err != nil {
		t.Fatal(err)
	}
	gp := ga.DefaultParams()
	gp.PopulationSize = 64
	gp.SeqLen = 100
	gp.Seed = 5
	const gens = 10
	var s search.Searcher
	s, err = search.New(search.Config{}, gp, ga.EvaluatorFunc(func(seqs []seq.Sequence) []float64 {
		hints, second := s.ParentHints(seqs)
		ctx := cluster.WithParentHints(context.Background(), hints)
		if secondParents {
			ctx = cluster.WithSecondParents(ctx, second)
		}
		fits := make([]float64, len(seqs))
		for i, r := range pool.EvaluateAllContext(ctx, seqs) {
			fits[i] = core.Fitness(r.TargetScore, r.NonTargetScores)
		}
		return fits
	}))
	if err != nil {
		t.Fatal(err)
	}
	s.InitPopulation()
	missesBefore := eng.WindowCacheStats().Misses
	for g := 0; g < gens; g++ {
		s.Step()
	}
	deltas, lifted := eng.DeltaStats()
	nw := int64(gp.SeqLen - eng.Index().Config().Window + 1)
	searched := eng.WindowCacheStats().Misses - missesBefore + deltas*nw - lifted
	return float64(searched) / float64(gens*gp.PopulationSize)
}

// TestTwoParentHintsSearchFewerWindows is a same-run count gate in the
// manner of BenchmarkSearcherOverhead's ratio, but on a count, so it
// holds on any machine: naming a crossover child's second parent must
// cut the windows searched per candidate to at most 0.75 x what the
// primary parent alone leaves.
func TestTwoParentHintsSearchFewerWindows(t *testing.T) {
	one, two := windowsSearchedPerCandidate(t, false), windowsSearchedPerCandidate(t, true)
	t.Logf("windows searched per candidate: %.1f with the primary parent, %.1f with both", one, two)
	if two > 0.75*one {
		t.Fatalf("two-parent hints searched %.1f windows per candidate, want at most 0.75 x %.1f", two, one)
	}
}

// lineageCounts is what one fixed GA run cost its engines after
// generation 0: candidates evaluated, how many of them were delta
// builds, and windows searched (window-table misses plus what the delta
// builds did not lift), and, over netcluster, parent profiles shipped.
type lineageCounts struct {
	evaluated, deltas, searched, shipped int64
}

func (c lineageCounts) deltaShare() float64 { return float64(c.deltas) / float64(c.evaluated) }
func (c lineageCounts) windowsPerCandidate() float64 {
	return float64(c.searched) / float64(c.evaluated)
}

// lineageRun runs a 12-generation GA, fitness cache on, in process
// (workers == 0, on a fresh engine) or through that many loopback
// netcluster workers, and counts from the engine's own counters or from
// Master.Stats alone.
func lineageRun(t *testing.T, workers int) lineageCounts {
	pr, shared := benchSetup(t)
	gp := ga.DefaultParams()
	gp.PopulationSize = 96
	gp.SeqLen = 110
	gp.Seed = 5
	opts := core.Options{
		GA:          gp,
		WarmStart:   true,
		Cluster:     cluster.Config{Workers: 1, ThreadsPerWorker: 1},
		Termination: ga.Termination{MinGenerations: 12, MaxGenerations: 12},
	}
	nonTargets := []int{1, 2, 3}
	nw := int64(gp.SeqLen - shared.Index().Config().Window + 1)
	var counts func() lineageCounts
	evaluated := int64(0) // by the journal's count: an engine does not count candidates
	eng := shared
	if workers == 0 {
		var err error
		if eng, err = pipe.New(pr.Proteins, pr.Graph, pipe.Config{}, 0); err != nil {
			t.Fatal(err)
		}
		counts = func() lineageCounts {
			deltas, lifted := eng.DeltaStats()
			return lineageCounts{evaluated, deltas, eng.WindowCacheStats().Misses + deltas*nw - lifted, 0}
		}
	} else {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		m := netcluster.NewMaster(netcluster.NewSetup(shared, 0, nonTargets, 1), ln)
		ctx, stop := context.WithCancel(context.Background())
		defer func() { stop(); m.Close() }()
		for w := 0; w < workers; w++ {
			go netcluster.RunWorkerLoop(ctx, m.Addr(), netcluster.WorkerOptions{})
		}
		for deadline := time.Now().Add(30 * time.Second); m.Workers() < workers; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d workers connected", m.Workers(), workers)
			}
		}
		opts.Backend = evalbackend.NewMaster(m)
		counts = func() lineageCounts {
			st := m.Stats()
			return lineageCounts{st.TasksCompleted, st.DeltaQueries, st.WindowMisses + st.DeltaQueries*nw - st.DeltaReusedWindows, st.ParentsShipped}
		}
	}
	var gen0 *lineageCounts
	opts.OnJournalRecord = func(rec *obs.GenerationRecord) {
		evaluated += int64(rec.Evaluated)
		if gen0 == nil {
			c := counts()
			gen0 = &c
		}
	}
	if _, err := core.Design(eng, 0, nonTargets, opts); err != nil {
		t.Fatal(err)
	}
	end := counts()
	return lineageCounts{end.evaluated - gen0.evaluated, end.deltas - gen0.deltas, end.searched - gen0.searched, end.shipped - gen0.shipped}
}

// TestNetclusterLeasesFollowLineage is a count gate like the one above:
// the same GA run in process and through 2 and 3 loopback workers. A
// worker builds a child incrementally from parents it retains or was
// shipped: the master keeps every member's profile as its worker
// returned it and sends a chunk the parents its worker lacks, so every
// candidate evaluated after generation 0 is a delta build from both its
// parents and the fleet searches what the in-process pool searches,
// whichever worker asked when. Both fleet sizes are gated, at a delta
// share of 0.98 and 1.05 x the in-process windows per candidate (both
// read 1.000 and 1.00 x here). Leasing by lineage without shipping read
// 0.98-1.00 and 1.38-1.49 x on two workers, 0.87-0.97 and 1.55-1.64 x
// on three; the head of the queue to whoever asks, 0.62-0.65 and
// 1.72-1.75 x. What leasing by lineage still decides is the bytes: the
// share of tasks that needed a parent shipped is logged.
func TestNetclusterLeasesFollowLineage(t *testing.T) {
	const minShare, maxCost = 0.98, 1.05
	local := lineageRun(t, 0)
	t.Logf("in process: %d candidates after generation 0, delta share %.3f, %.1f windows searched per candidate",
		local.evaluated, local.deltaShare(), local.windowsPerCandidate())
	for _, workers := range []int{2, 3} {
		net := lineageRun(t, workers)
		cost := net.windowsPerCandidate() / local.windowsPerCandidate()
		t.Logf("%d workers: %d candidates after generation 0, delta share %.3f, %.1f windows searched per candidate (%.2f x in process), %.2f parents shipped per candidate",
			workers, net.evaluated, net.deltaShare(), net.windowsPerCandidate(), cost, float64(net.shipped)/float64(net.evaluated))
		if net.evaluated != local.evaluated {
			t.Errorf("%d workers evaluated %d candidates, in process %d: not the same run", workers, net.evaluated, local.evaluated)
		}
		if net.deltaShare() < minShare {
			t.Errorf("%d workers: delta builds are %.3f of the candidates evaluated, want at least %.2f", workers, net.deltaShare(), minShare)
		}
		if cost > maxCost {
			t.Errorf("%d workers: %.1f windows searched per candidate, want at most %.2f x the in-process %.1f",
				workers, net.windowsPerCandidate(), maxCost, local.windowsPerCandidate())
		}
	}
}

// benchAssay builds the Table 4/5 wet-lab experiment with an ideal
// inhibitor (assay cost only; design cost is Fig7's benchmark).
func benchAssay(b *testing.B, stressor wetlab.Stressor) {
	pr, _ := benchSetup(b)
	target := pr.WetlabTargetIDs()[0]
	cStar := pr.ComplementOf(pr.WetlabTargetMotif(0))
	body := []byte(seq.Random(rand.New(rand.NewSource(2)), "anti", 140, seq.YeastComposition()).Residues())
	copy(body[40:], pr.MasterMotif(cStar).Residues())
	exp := wetlab.Experiment{
		Proteome:  pr,
		TargetID:  target,
		Inhibitor: seq.MustNew("anti", string(body)),
		Stressor:  stressor,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp.Seed = int64(i + 1)
		table := exp.Run(5)
		if len(table.Rows) != 5 {
			b.Fatal("bad assay")
		}
	}
}

// BenchmarkTable4Cycloheximide runs the Table 4 (and Figure 8) assay.
func BenchmarkTable4Cycloheximide(b *testing.B) { benchAssay(b, wetlab.Cycloheximide65()) }

// BenchmarkTable5UV runs the Table 5 (and Figure 9) assay.
func BenchmarkTable5UV(b *testing.B) { benchAssay(b, wetlab.UV30s()) }

// BenchmarkFig10SpotTest runs the Figure 10 dilution series.
func BenchmarkFig10SpotTest(b *testing.B) {
	pr, _ := benchSetup(b)
	exp := wetlab.Experiment{
		Proteome:  pr,
		TargetID:  pr.WetlabTargetIDs()[0],
		Inhibitor: pr.Proteins[1],
		Stressor:  wetlab.UV30s(),
		Seed:      1,
	}
	for i := 0; i < b.N; i++ {
		exp.SpotTest(4)
	}
}

// --- Ablations (DESIGN.md §7) ---------------------------------------

// BenchmarkAblationMatrix compares PAM120 (the paper's choice) against
// BLOSUM62 for engine scoring.
func BenchmarkAblationMatrix(b *testing.B) {
	pr, _ := benchSetup(b)
	for _, m := range []*submat.Matrix{submat.PAM120(), submat.BLOSUM62()} {
		b.Run(m.Name(), func(b *testing.B) {
			eng, err := pipe.New(pr.Proteins, pr.Graph,
				pipe.Config{Index: simindex.Config{Matrix: m}}, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.ScorePair(i%20, (i+7)%20)
			}
		})
	}
}

// BenchmarkAblationFilter compares the 3x3 box filter against raw cells.
func BenchmarkAblationFilter(b *testing.B) {
	pr, _ := benchSetup(b)
	for _, cfg := range []struct {
		name       string
		unfiltered bool
	}{{"filtered", false}, {"unfiltered", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			eng, err := pipe.New(pr.Proteins, pr.Graph, pipe.Config{Unfiltered: cfg.unfiltered}, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.ScorePair(i%20, (i+7)%20)
			}
		})
	}
}

// BenchmarkAblationIndex compares seeded window search against brute
// force — the similarity-database design choice.
func BenchmarkAblationIndex(b *testing.B) {
	pr, eng := benchSetup(b)
	q := pr.Proteins[0]
	b.Run("seeded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng.Index().SequenceSimilarity(q, 1)
		}
	})
	b.Run("brute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng.Index().BruteSequenceSimilarity(q, 1)
		}
	})
}

// BenchmarkAblationDispatch compares the paper's on-demand dispatch
// against static round-robin partitioning; compare the reported
// makespan_ns metric, not just wall time.
func BenchmarkAblationDispatch(b *testing.B) {
	pr, eng := benchSetup(b)
	pool, err := cluster.New(eng, 0, []int{1, 2, 3}, cluster.Config{Workers: 4, ThreadsPerWorker: 1})
	if err != nil {
		b.Fatal(err)
	}
	// Heterogeneous candidate costs: mix difficulty classes.
	rng := rand.New(rand.NewSource(3))
	var seqs []seq.Sequence
	for i := 0; i < 16; i++ {
		d := yeastgen.Difficulty(i % int(yeastgen.NumDifficulties))
		seqs = append(seqs, pr.DifficultySequence(rng, d, 160))
	}
	b.Run("on-demand", func(b *testing.B) {
		var makespan int64
		for i := 0; i < b.N; i++ {
			rep := pool.EvaluateAllReport(seqs)
			makespan += int64(rep.Makespan())
		}
		b.ReportMetric(float64(makespan)/float64(b.N), "makespan_ns")
	})
	b.Run("static", func(b *testing.B) {
		var makespan int64
		for i := 0; i < b.N; i++ {
			rep := pool.EvaluateAllStatic(seqs)
			makespan += int64(rep.Makespan())
		}
		b.ReportMetric(float64(makespan)/float64(b.N), "makespan_ns")
	})
}

// BenchmarkBackendDispatch measures what the evaluation backend
// abstraction costs per generation: a raw pool round versus the same
// pool behind a Backend, versus a two-way sharded composite. The deltas
// are the dispatch overhead — scores are identical on every variant.
func BenchmarkBackendDispatch(b *testing.B) {
	pr, eng := benchSetup(b)
	rng := rand.New(rand.NewSource(3))
	var seqs []seq.Sequence
	for i := 0; i < 16; i++ {
		d := yeastgen.Difficulty(i % int(yeastgen.NumDifficulties))
		seqs = append(seqs, pr.DifficultySequence(rng, d, 160))
	}
	cfg := cluster.Config{Workers: 2, ThreadsPerWorker: 1}
	b.Run("pool-direct", func(b *testing.B) {
		pool, err := cluster.New(eng, 0, []int{1, 2, 3}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pool.EvaluateAll(seqs)
		}
	})
	b.Run("backend", func(b *testing.B) {
		be, err := evalbackend.NewPool(eng, 0, []int{1, 2, 3}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := be.EvaluateAll(context.Background(), seqs); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Named without a trailing -<digit>: benchpipe strips the GOMAXPROCS
	// suffix from result lines, and on single-core machines (no suffix) a
	// literal "-2" would be eaten instead, double-recording this variant
	// under two names ("sharded" vs "sharded-2" — the source of a phantom
	// 24.8ms-vs-17.1ms regression in earlier BENCH_PIPE.json snapshots).
	b.Run("two-shard", func(b *testing.B) {
		shards := make([]evalbackend.Backend, 2)
		for k := range shards {
			pb, err := evalbackend.NewPool(eng, 0, []int{1, 2, 3}, cluster.Config{Workers: 1, ThreadsPerWorker: 1})
			if err != nil {
				b.Fatal(err)
			}
			shards[k] = pb
		}
		sh, err := evalbackend.NewSharded(shards...)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sh.EvaluateAll(context.Background(), seqs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkElasticDispatch measures the elastic-dispatch chain end to
// end: a two-shard work-stealing composite versus the same composite
// behind the hedging and retry middleware. The delta is what straggler
// insurance costs on a healthy fleet — scores stay identical.
func BenchmarkElasticDispatch(b *testing.B) {
	pr, eng := benchSetup(b)
	rng := rand.New(rand.NewSource(3))
	var seqs []seq.Sequence
	for i := 0; i < 16; i++ {
		d := yeastgen.Difficulty(i % int(yeastgen.NumDifficulties))
		seqs = append(seqs, pr.DifficultySequence(rng, d, 160))
	}
	newSharded := func(b *testing.B) *evalbackend.Sharded {
		shards := make([]evalbackend.Backend, 2)
		for k := range shards {
			pb, err := evalbackend.NewPool(eng, 0, []int{1, 2, 3}, cluster.Config{Workers: 1, ThreadsPerWorker: 1})
			if err != nil {
				b.Fatal(err)
			}
			shards[k] = pb
		}
		sh, err := evalbackend.NewSharded(shards...)
		if err != nil {
			b.Fatal(err)
		}
		return sh
	}
	b.Run("work-stealing", func(b *testing.B) {
		sh := newSharded(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sh.EvaluateAll(context.Background(), seqs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hedged-retry", func(b *testing.B) {
		sh := newSharded(b)
		spare, err := evalbackend.NewPool(eng, 0, []int{1, 2, 3}, cluster.Config{Workers: 1, ThreadsPerWorker: 1})
		if err != nil {
			b.Fatal(err)
		}
		chain := evalbackend.WithRetry(evalbackend.WithHedging(sh, spare, evalbackend.HedgingConfig{}, nil), spare, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := chain.EvaluateAll(context.Background(), seqs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchSurrogatePool builds the rotating candidate pool the surrogate
// benchmarks score: production-length random sequences with yeast
// composition, plus synthetic score labels derived from a second RNG.
func benchSurrogatePool(n int) (residues []string, targets, maxNTs, avgNTs []float64) {
	rng := rand.New(rand.NewSource(11))
	residues = make([]string, n)
	targets = make([]float64, n)
	maxNTs = make([]float64, n)
	avgNTs = make([]float64, n)
	for i := range residues {
		residues[i] = seq.Random(rng, "cand", 130, seq.YeastComposition()).Residues()
		targets[i] = rng.Float64()
		maxNTs[i] = rng.Float64()
		avgNTs[i] = maxNTs[i] * rng.Float64()
	}
	return residues, targets, maxNTs, avgNTs
}

// BenchmarkSurrogatePredict is the surrogate pre-scorer's hot path: one
// feature extraction plus three linear heads per candidate. Per-candidate
// cost here bounds what filtering a whole generation costs — it must stay
// orders of magnitude under one PIPE evaluation (BenchmarkPIPEScore).
func BenchmarkSurrogatePredict(b *testing.B) {
	residues, targets, maxNTs, avgNTs := benchSurrogatePool(1024)
	m := surrogate.NewModel(surrogate.ModelConfig{})
	for i := range residues {
		m.Observe(residues[i], targets[i], maxNTs[i], avgNTs[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(residues[i%len(residues)])
	}
}

// BenchmarkSurrogateTrain is one online SGD update: predict, error, and
// three-head weight step. Dedup is disabled so the rotating pool trains
// on every iteration instead of being skipped as already seen.
func BenchmarkSurrogateTrain(b *testing.B) {
	residues, targets, maxNTs, avgNTs := benchSurrogatePool(1024)
	m := surrogate.NewModel(surrogate.ModelConfig{DedupCapacity: -1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(residues)
		m.Observe(residues[j], targets[j], maxNTs[j], avgNTs[j])
	}
}

// BenchmarkPIPEScore is the engine's hot path in isolation.
func BenchmarkPIPEScore(b *testing.B) {
	_, eng := benchSetup(b)
	q := eng.DBQuery(0)
	scorer := eng.NewScorer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scorer.Score(q, i%benchProt.Graph.NumProteins())
	}
}

// BenchmarkQueryPreprocess is Algorithm 2's per-candidate preprocessing.
func BenchmarkQueryPreprocess(b *testing.B) {
	pr, eng := benchSetup(b)
	q := seq.Random(rand.New(rand.NewSource(4)), "cand", 150, seq.YeastComposition())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.NewQuery(q, 1)
	}
	_ = pr
}

// BenchmarkWindowRunSearch is the seeded window search in the three
// shapes its callers produce, uncached so every window is searched: a
// lone window, the w adjacent windows one point mutation stales (the
// delta path's unit of work), and a cold 200-residue query (cut into
// runs). cmd/benchpipe gates run20 against single: adjacent windows share
// all but one seed k-mer and slide along shared diagonals, so a run must
// cost far less than its windows searched one by one.
func BenchmarkWindowRunSearch(b *testing.B) {
	_, eng := benchSetup(b)
	ix := eng.Index()
	rng := rand.New(rand.NewSource(13))
	w := ix.Config().Window
	q200 := seq.Random(rng, "cand", 200, seq.YeastComposition())
	b.Run("single", func(b *testing.B) {
		q := seq.MustNew("win", q200.Residues()[90:90+w])
		for i := 0; i < b.N; i++ {
			ix.SequenceSimilarity(q, 1)
		}
	})
	b.Run("run20", func(b *testing.B) {
		parent := []simindex.DeltaParent{{Seq: q200, Prof: ix.SequenceSimilarity(q200, 1)}}
		res := []byte(q200.Residues())
		res[100] = seq.Letter((seq.Index(res[100]) + 1) % seq.NumAminoAcids)
		child := seq.MustNew("child", string(res))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, lifted := ix.SequenceSimilarityDelta(parent, child, 1); lifted != q200.NumWindows(w)-w {
				b.Fatalf("lifted %d windows", lifted)
			}
		}
	})
	b.Run("query200", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix.SequenceSimilarity(q200, 1)
		}
	})
}

// BenchmarkScoreBatch is a generation's worth of candidates scored
// through the batched path: window-table lookups, per-generation
// window dedup, and batch preprocessing ahead of the score kernel. Its
// counterpart per-candidate cost is BenchmarkQueryPreprocess +
// BenchmarkPIPEScore; the gap between them is what the batch path buys.
func BenchmarkScoreBatch(b *testing.B) {
	pr, eng := benchSetup(b)
	rng := rand.New(rand.NewSource(11))
	cands := make([]seq.Sequence, 24)
	for i := range cands {
		cands[i] = seq.Random(rng, "cand", 130, seq.YeastComposition())
	}
	ids := []int{0, 1, 2, 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.ScoreBatch(cands, ids, 1)
	}
	_ = pr
}

// BenchmarkWindowCache is the natural proteome's window table in
// isolation: lookups from every P (b.RunParallel) over a fixed mix of
// three natural windows, which hit, to one random window, which misses
// — about the hit ratio a warm-started D200 run's lookups see.
func BenchmarkWindowCache(b *testing.B) {
	pr, eng := benchSetup(b)
	table := eng.Index().NewWindowCache(eng.DBProfiles())
	w := eng.Index().Config().Window
	rng := rand.New(rand.NewSource(12))
	const nKeys = 4096
	keys := make([]string, nKeys)
	for i := range keys {
		if i%4 == 3 {
			keys[i] = seq.Random(rng, "miss", w, seq.YeastComposition()).Residues()
			continue
		}
		res := pr.Proteins[rng.Intn(len(pr.Proteins))].Residues()
		off := rng.Intn(len(res) - w + 1)
		keys[i] = res[off : off+w]
	}
	var start atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := int(start.Add(nKeys / 8)); pb.Next(); i++ {
			table.Get(keys[i%nKeys])
		}
	})
}

// BenchmarkGAGeneration measures one GA generation without PIPE (pure
// selection + operators).
func BenchmarkGAGeneration(b *testing.B) {
	eval := ga.EvaluatorFunc(func(seqs []seq.Sequence) []float64 {
		out := make([]float64, len(seqs))
		for i := range out {
			out[i] = float64(i%10) / 10
		}
		return out
	})
	p := ga.DefaultParams()
	p.PopulationSize = 200
	engine, err := ga.New(p, eval)
	if err != nil {
		b.Fatal(err)
	}
	engine.InitPopulation()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Step()
	}
}
