package island

import (
	"context"
	"math"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/evalbackend"
	"repro/internal/ga"
	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/search"
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

func gaParams(pop int, seed int64) ga.Params {
	p := ga.DefaultParams()
	p.PopulationSize = pop
	p.SeqLen = 120
	p.Seed = seed
	return p
}

// runOpts are the core.Options of an island run: population, per-island
// generation budget and island 0's seed, on one-worker pools.
func runOpts(pop, gens int, seed int64) core.Options {
	return core.Options{
		GA:          gaParams(pop, seed),
		Cluster:     cluster.Config{Workers: 1, ThreadsPerWorker: 1},
		Termination: ga.Termination{MaxGenerations: gens},
	}
}

func problem(t testing.TB) core.Problem {
	pr, eng := setup(t)
	target := pr.WetlabTargetIDs()[0]
	var nts []int
	for _, id := range pr.ComponentMembers(pr.Component(target)) {
		if id != target && len(nts) < 5 {
			nts = append(nts, id)
		}
	}
	return core.Problem{Engine: eng, TargetID: target, NonTargetIDs: nts}
}

// openJournals opens one journal per island under fresh directories.
func openJournals(t *testing.T, islands, checkpointEvery int) ([]string, []*obs.RunJournal) {
	t.Helper()
	dirs := make([]string, islands)
	journals := make([]*obs.RunJournal, islands)
	for k := range journals {
		dirs[k] = filepath.Join(t.TempDir(), "island")
		j, err := obs.OpenJournal(dirs[k], obs.JournalOptions{CheckpointEvery: checkpointEvery})
		if err != nil {
			t.Fatal(err)
		}
		journals[k] = j
	}
	return dirs, journals
}

// closeAndRead closes the journals and returns each island's records.
func closeAndRead(t *testing.T, dirs []string, journals []*obs.RunJournal) [][]obs.GenerationRecord {
	t.Helper()
	recs := make([][]obs.GenerationRecord, len(dirs))
	for k := range dirs {
		if err := journals[k].Close(); err != nil {
			t.Fatal(err)
		}
		var err error
		if recs[k], err = obs.ReadJournal(obs.JournalPath(dirs[k])); err != nil {
			t.Fatal(err)
		}
	}
	return recs
}

// runJournaled runs the island model with one journal per island and
// returns the result with every island's records.
func runJournaled(t *testing.T, opts core.Options, cfg Config) (Result, [][]obs.GenerationRecord) {
	t.Helper()
	dirs, journals := openJournals(t, cfg.Islands, -1)
	cfg.Journals = journals
	res, err := Run(context.Background(), problem(t), opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, closeAndRead(t, dirs, journals)
}

// golden is an island run's outcome recorded at the last commit where
// island.Run drove its own ga.Engine loop.
type golden struct {
	curves       [][]float64
	best         string
	bestIsland   int
	migrations   int
	finalPopHash []string // per island: pop_hash of the last generation
}

func (g golden) assert(t *testing.T, res Result, recs [][]obs.GenerationRecord) {
	t.Helper()
	if !reflect.DeepEqual(res.Curves, g.curves) {
		t.Errorf("curves diverged from the golden:\ngot:  %v\nwant: %v", res.Curves, g.curves)
	}
	if res.Best.Seq.Residues() != g.best || res.BestIsland != g.bestIsland || res.Migrations != g.migrations {
		t.Errorf("best %q from island %d after %d migrations, golden %q from island %d after %d",
			res.Best.Seq.Residues(), res.BestIsland, res.Migrations, g.best, g.bestIsland, g.migrations)
	}
	for k, want := range g.finalPopHash {
		if got := recs[k][len(recs[k])-1].PopHash; got != want {
			t.Errorf("island %d final pop_hash %s, golden %s", k, got, want)
		}
	}
}

// synthBackends scores candidates by residue composition — a cheap,
// deterministic stand-in for PIPE under which random populations have
// distinct non-zero fitness, so selection and migrant ranking matter.
func synthBackends(islands int) []evalbackend.Backend {
	out := make([]evalbackend.Backend, islands)
	for k := range out {
		out[k] = evalbackend.Func(func(seqs []seq.Sequence) ([]cluster.Result, error) {
			res := make([]cluster.Result, len(seqs))
			for i, s := range seqs {
				frac := func(c byte) float64 {
					n := 0
					for j := 0; j < s.Len(); j++ {
						if s.At(j) == c {
							n++
						}
					}
					return float64(n) / float64(s.Len())
				}
				res[i] = cluster.Result{Index: i, TargetScore: 4 * frac('L'), NonTargetScores: []float64{2 * frac('K'), frac('E')}}
			}
			return res, nil
		})
	}
	return out
}

var (
	goldenPool3 = golden{
		curves:       [][]float64{{0, 0, 0, 0, 0, 0}, {0, 0, 0, 0, 0, 0}, {0, 0, 0, 0, 0, 0}},
		best:         "PSQHNWEELQFLNTDNEVAKDEATEGWMPDDRYPSQEGRDKLKYLLAFVYLTSESTLNKANLSPLELNELNRLENHATPNALGFPDEKDLGTRNREYMLVKSINEVAMYHLDKVSDLFRD",
		migrations:   2,
		finalPopHash: []string{"5048406049ce0e2d", "7f94c85f35fed2c6", "58198c9da78b82c6"},
	}
	goldenSynth3 = golden{
		curves: [][]float64{
			{0.45999999999999996, 0.5444444444444444, 0.5555555555555556, 0.54, 0.5594444444444444, 0.5488888888888889, 0.5488888888888889},
			{0.44166666666666665, 0.4355555555555556, 0.5444444444444444, 0.5666666666666667, 0.54, 0.5599999999999999, 0.5555555555555556},
			{0.49777777777777776, 0.4583333333333333, 0.4355555555555556, 0.45, 0.5666666666666667, 0.49, 0.5599999999999999},
		},
		best:         "ASILSCLNNIMTDNLDPVVKYFSCEEELFMGLEHNFNVKSQYIDHSVKDLVMQMHLSLNKLSLLLQILSIQQLLLKKKDPRTVLAEDTAFDKAESINTPGEIQYLTDQLPSTKSLAERYN",
		bestIsland:   1,
		migrations:   3,
		finalPopHash: []string{"caef3f329c166334", "34ae755d61f39865", "fb972636187b5148"},
	}
	goldenNet2 = golden{
		curves:       [][]float64{{0, 0, 0, 0}, {0, 0, 0, 0}},
		best:         "GNPSSAQMNEVNRGGPSVETSWNLLIRKENPKSWAALQPAHPAVKKINTVTFIPARYVDSYVALHEIEESLVSSHFLAIKRKVTPDNLPPYSGKFLSRIRVFSSLNDRVIELTKNFEQES",
		migrations:   1,
		finalPopHash: []string{"1da8c9a2b403d1f3", "c847f4aec662e04a"},
	}
)

func TestRunValidation(t *testing.T) {
	p := problem(t)
	opts := runOpts(10, 2, 1)
	negGens := opts
	negGens.Termination.MaxGenerations = -1
	cases := []struct {
		name    string
		problem core.Problem
		opts    core.Options
		cfg     Config
	}{
		{"nil engine", core.Problem{}, opts, Config{}},
		{"single island", p, opts, Config{Islands: 1}},
		{"migrants >= population", p, opts, Config{Migrants: 10}},
		{"negative migrants", p, opts, Config{Migrants: -1}},
		{"negative sync interval", p, opts, Config{SyncInterval: -2}},
		{"negative generations", p, negGens, Config{}},
	}
	for _, c := range cases {
		if _, err := Run(context.Background(), c.problem, c.opts, c.cfg); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestRunBasics(t *testing.T) {
	res, recs := runJournaled(t, runOpts(12, 6, 1), Config{Islands: 3, SyncInterval: 2, Migrants: 2})
	if res.Generations != 6 {
		t.Errorf("generations %d", res.Generations)
	}
	// Syncs after generations 2 and 4 (not after the final one).
	if res.Migrations != 2 {
		t.Errorf("migrations %d, want 2", res.Migrations)
	}
	if len(res.PerIsland) != 3 {
		t.Fatalf("per-island results %d", len(res.PerIsland))
	}
	best := 0.0
	for _, f := range res.PerIsland {
		if f > best {
			best = f
		}
	}
	if math.Abs(res.Best.Fitness-best) > 1e-12 {
		t.Errorf("Best %f != max per-island %f", res.Best.Fitness, best)
	}
	if res.BestIsland < 0 || res.BestIsland >= 3 {
		t.Errorf("BestIsland %d", res.BestIsland)
	}
	if res.Best.Seq.Len() != 120 {
		t.Errorf("best sequence length %d", res.Best.Seq.Len())
	}
	goldenPool3.assert(t, res, recs)
}

// TestSyntheticBackendGolden pins a run whose fitness is non-zero from
// generation 0, so fitness-proportional selection and the ranking of
// emigrants both shape the trajectory the golden records.
func TestSyntheticBackendGolden(t *testing.T) {
	res, recs := runJournaled(t, runOpts(12, 7, 5),
		Config{Islands: 3, SyncInterval: 2, Migrants: 2, Backends: synthBackends(3)})
	goldenSynth3.assert(t, res, recs)
}

func TestRunDeterministic(t *testing.T) {
	p := problem(t)
	cfg := Config{Islands: 2, SyncInterval: 2, Migrants: 1}
	a, err := Run(context.Background(), p, runOpts(10, 4, 7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), p, runOpts(10, 4, 7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Best.Fitness != b.Best.Fitness || a.Best.Seq.Residues() != b.Best.Seq.Residues() {
		t.Error("island run not deterministic under fixed seed")
	}
	c, err := Run(context.Background(), p, runOpts(10, 4, 8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Best.Seq.Residues() == a.Best.Seq.Residues() {
		t.Error("different seeds produced identical results")
	}
}

func TestIslandsDivergeWithoutSync(t *testing.T) {
	// With a huge sync interval, islands never exchange individuals and
	// evolve independently.
	res, err := Run(context.Background(), problem(t), runOpts(10, 5, 3),
		Config{Islands: 3, SyncInterval: 1000, Migrants: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations != 0 {
		t.Errorf("migrations %d, want 0", res.Migrations)
	}
}

func TestMigrationSpreadsEliteSequences(t *testing.T) {
	// Drive two migrants over GA searchers by hand through one sync
	// generation: the receiving island's next batch must contain the
	// sender's best evaluated sequence verbatim.
	wFrac := func(s seq.Sequence) float64 {
		n := 0
		for j := 0; j < s.Len(); j++ {
			if s.At(j) == 'W' {
				n++
			}
		}
		return float64(n) / float64(s.Len())
	}
	eval := ga.EvaluatorFunc(func(seqs []seq.Sequence) []float64 {
		out := make([]float64, len(seqs))
		for i, s := range seqs {
			out[i] = wFrac(s)
		}
		return out
	})
	ctx := context.Background()
	r := &ring{cfg: Config{Islands: 2, SyncInterval: 1, Migrants: 2}, total: 3,
		ctx: ctx, abortCtx: ctx, abort: func() {}, halt: func() {}, round: newRound(2)}
	islands := make([]search.Searcher, 2)
	bestOf := make([]string, 2)
	for k := range islands {
		s, err := search.New(search.Config{Decorate: r.decorator(k)}, gaParams(8, int64(k+1)), eval)
		if err != nil {
			t.Fatal(err)
		}
		s.InitPopulation()
		bestFit := -1.0
		for _, ind := range s.Population() {
			if f := wFrac(ind.Seq); f > bestFit {
				bestFit, bestOf[k] = f, ind.Seq.Residues()
			}
		}
		islands[k] = s
	}
	var wg sync.WaitGroup
	for _, s := range islands {
		wg.Add(1)
		go func(s search.Searcher) {
			defer wg.Done()
			s.Step()
		}(s)
	}
	wg.Wait()
	contains := func(s search.Searcher, residues string) bool {
		for _, ind := range s.Population() {
			if ind.Seq.Residues() == residues {
				return true
			}
		}
		return false
	}
	// Ring: island 1 receives island 0's best, and vice versa.
	if !contains(islands[1], bestOf[0]) {
		t.Error("island 1 did not receive island 0's best sequence")
	}
	if !contains(islands[0], bestOf[1]) {
		t.Error("island 0 did not receive island 1's best sequence")
	}
}

func TestRingMigrationCount(t *testing.T) {
	res, err := Run(context.Background(), problem(t), runOpts(10, 5, 5),
		Config{Islands: 2, SyncInterval: 1, Migrants: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations != 4 {
		t.Errorf("migrations %d, want 4", res.Migrations)
	}
}
