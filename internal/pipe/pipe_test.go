package pipe

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/seq"
	"repro/internal/simindex"
	"repro/internal/yeastgen"
)

var (
	testOnce   sync.Once
	testProt   *yeastgen.Proteome
	testEngine *Engine
)

// testSetup builds one shared proteome+engine for the whole package; the
// engine is immutable so tests may share it.
func testSetup(t testing.TB) (*yeastgen.Proteome, *Engine) {
	testOnce.Do(func() {
		pr, err := yeastgen.Generate(yeastgen.TestParams())
		if err != nil {
			panic(err)
		}
		eng, err := New(pr.Proteins, pr.Graph, Config{}, 0)
		if err != nil {
			panic(err)
		}
		testProt, testEngine = pr, eng
	})
	return testProt, testEngine
}

func TestNewValidatesAlignment(t *testing.T) {
	pr, _ := testSetup(t)
	// Proteins reversed no longer match graph vertex names.
	rev := make([]seq.Sequence, len(pr.Proteins))
	for i, p := range pr.Proteins {
		rev[len(rev)-1-i] = p
	}
	if _, err := New(rev, pr.Graph, Config{}, 1); err == nil {
		t.Error("misaligned proteome accepted")
	}
	short := pr.Proteins[:10]
	if _, err := New(short, pr.Graph, Config{}, 1); err == nil {
		t.Error("truncated proteome accepted")
	}
}

// New searches the proteome once, scoring each similar window pair from
// one side only; every database profile must still be the one a fresh
// search of that protein gives, for any thread count. The proteomes are
// the benchmark's (224 proteins) and, without -short, one of 624.
func TestNewProfilesMatchPerProteinSearch(t *testing.T) {
	sizes := []int{200}
	if !testing.Short() {
		sizes = append(sizes, 600)
	}
	for _, n := range sizes {
		p := yeastgen.DefaultParams()
		p.NumProteins = n
		pr, err := yeastgen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		var want []simindex.FlatProfile
		for _, threads := range []int{1, 2, 3, 8} {
			e, err := New(pr.Proteins, pr.Graph, Config{}, threads)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				for _, s := range pr.Proteins {
					want = append(want, e.Index().SequenceSimilarity(s, 1))
				}
			}
			for i, got := range e.DBProfiles() {
				if !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("P%d, %d threads: profile of %s differs from its per-protein search", len(pr.Proteins), threads, pr.Proteins[i].Name())
				}
			}
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	_, e := testSetup(t)
	cfg := e.Config()
	if cfg.Index.Window != 20 || cfg.CellSupport != 0.5 || cfg.FilterRadius != 1 {
		t.Errorf("defaults: %+v", cfg)
	}
	if cfg.TopFrac != 0.01 || cfg.ScoreScale != 0.08 || cfg.Pseudocount != 60 {
		t.Errorf("defaults: %+v", cfg)
	}
	if cfg.MinOcc != 2 || cfg.WeightScale != 40 || cfg.WeightCap != 1 {
		t.Errorf("defaults: %+v", cfg)
	}
}

// TestNewRejectsOutOfRangeConfig: values the kernel has no meaning for
// are errors from both constructors, not silent zeros or a panic.
func TestNewRejectsOutOfRangeConfig(t *testing.T) {
	pr, e := testSetup(t)
	nan := math.NaN()
	for name, cfg := range map[string]Config{
		"negative FilterRadius": {FilterRadius: -1},
		"negative MinEvidence":  {MinEvidence: -1},
		"MinEvidence > uint16":  {MinEvidence: 65536},
		"negative MinOcc":       {MinOcc: -1},
		"negative TopFrac":      {TopFrac: -0.01},
		"TopFrac > 1":           {TopFrac: 1.5},
		"NaN TopFrac":           {TopFrac: nan},
		"negative ScoreScale":   {ScoreScale: -0.08},
		"NaN ScoreScale":        {ScoreScale: nan},
		"negative WeightScale":  {WeightScale: -40},
		"negative Pseudocount":  {Pseudocount: -60},
		"NaN CellSupport":       {CellSupport: nan},
		"NaN WeightCap":         {WeightCap: nan},
		"negative WeightCap":    {WeightCap: -1},
	} {
		if _, err := New(pr.Proteins, pr.Graph, cfg, 1); err == nil {
			t.Errorf("New accepted %s", name)
		}
		if _, err := NewFromProfiles(pr.Proteins, pr.Graph, cfg, e.DBProfiles()); err == nil {
			t.Errorf("NewFromProfiles accepted %s", name)
		}
	}
	// The edges of the ranges are valid.
	for name, cfg := range map[string]Config{
		"MinEvidence 65535": {MinEvidence: 65535},
		"floors of one":     {MinEvidence: 1, MinOcc: 1},
		"TopFrac 1":         {TopFrac: 1},
	} {
		if _, err := NewFromProfiles(pr.Proteins, pr.Graph, cfg, e.DBProfiles()); err != nil {
			t.Errorf("%s rejected: %v", name, err)
		}
	}
}

func TestScoreRange(t *testing.T) {
	pr, e := testSetup(t)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		a, b := rng.Intn(len(pr.Proteins)), rng.Intn(len(pr.Proteins))
		s := e.ScorePair(a, b)
		if s < 0 || s > 1 {
			t.Fatalf("score %f out of [0,1]", s)
		}
	}
}

func TestKnownPairsOutscoreTrueNegatives(t *testing.T) {
	pr, e := testSetup(t)
	rng := rand.New(rand.NewSource(2))
	comp := func(a, b int) bool {
		for _, ma := range pr.Motifs(a) {
			for _, mb := range pr.Motifs(b) {
				if pr.ComplementOf(ma) == mb {
					return true
				}
			}
		}
		return false
	}
	var edges [][2]int
	pr.Graph.Edges(func(a, b int) bool {
		edges = append(edges, [2]int{a, b})
		return true
	})
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	var pos, neg []float64
	for _, ed := range edges[:40] {
		pos = append(pos, e.ScorePair(ed[0], ed[1]))
	}
	for len(neg) < 80 {
		a, b := rng.Intn(len(pr.Proteins)), rng.Intn(len(pr.Proteins))
		if a == b || pr.Graph.HasEdge(a, b) || comp(a, b) {
			continue
		}
		neg = append(neg, e.ScorePair(a, b))
	}
	sort.Float64s(pos)
	sort.Float64s(neg)
	if pos[len(pos)/2] <= neg[len(neg)/2] {
		t.Errorf("median positive %.3f <= median negative %.3f",
			pos[len(pos)/2], neg[len(neg)/2])
	}
	if pos[len(pos)/2] < 0.5 {
		t.Errorf("median positive %.3f < 0.5", pos[len(pos)/2])
	}
	if neg[len(neg)/2] > 0.3 {
		t.Errorf("median true negative %.3f > 0.3", neg[len(neg)/2])
	}
}

func TestSyntheticBinderScoresHigh(t *testing.T) {
	pr, e := testSetup(t)
	rng := rand.New(rand.NewSource(3))
	target := 0
	m := pr.Motifs(target)[0]
	cm := pr.MasterMotif(pr.ComplementOf(m))
	body := []byte(seq.Random(rng, "binder", 150, seq.YeastComposition()).Residues())
	copy(body[60:], cm.Residues())
	binder := seq.MustNew("binder", string(body))
	sBinder := e.Score(binder, target, 1)
	random := seq.Random(rng, "rnd", 150, seq.YeastComposition())
	sRandom := e.Score(random, target, 1)
	if sBinder < 0.5 {
		t.Errorf("binder score %.3f < 0.5", sBinder)
	}
	if sRandom > 0.2 {
		t.Errorf("random score %.3f > 0.2", sRandom)
	}
	if sBinder <= sRandom {
		t.Error("binder does not outscore random sequence")
	}
}

func TestScoreDeterministic(t *testing.T) {
	pr, e := testSetup(t)
	a, b := 3, 7
	s1 := e.ScorePair(a, b)
	s2 := e.ScorePair(a, b)
	if s1 != s2 {
		t.Errorf("ScorePair not deterministic: %f vs %f", s1, s2)
	}
	q := pr.Proteins[9]
	if e.Score(q, 4, 1) != e.Score(q, 4, 3) {
		t.Error("Score differs across thread counts")
	}
}

func TestScoreManyMatchesScore(t *testing.T) {
	pr, e := testSetup(t)
	rng := rand.New(rand.NewSource(4))
	q := seq.Random(rng, "q", 160, seq.YeastComposition())
	// Give the query some signal so scores are non-trivial.
	cm := pr.MasterMotif(1)
	body := []byte(q.Residues())
	copy(body[30:], cm.Residues())
	q = seq.MustNew("q", string(body))
	ids := []int{0, 5, 10, 15, 20, 25, 30}
	batch := e.ScoreMany(q, ids, 4)
	if len(batch) != len(ids) {
		t.Fatalf("batch length %d", len(batch))
	}
	query := e.NewQuery(q, 1)
	scorer := e.NewScorer()
	for i, id := range ids {
		want := scorer.Score(query, id)
		if batch[i] != want {
			t.Errorf("ScoreMany[%d]=%f, Score=%f", i, batch[i], want)
		}
	}
}

func TestScorerReuseConsistent(t *testing.T) {
	pr, e := testSetup(t)
	scorer := e.NewScorer()
	q := e.DBQuery(2)
	// Interleave targets of different sizes; reused buffers must not leak
	// state between calls.
	first := make([]float64, 10)
	for i := 0; i < 10; i++ {
		first[i] = scorer.Score(q, i)
	}
	for i := 9; i >= 0; i-- {
		if got := scorer.Score(q, i); got != first[i] {
			t.Fatalf("scorer reuse changed Score(2,%d): %f vs %f", i, got, first[i])
		}
	}
	_ = pr
}

func TestShortQueryScoresZero(t *testing.T) {
	_, e := testSetup(t)
	short := seq.MustNew("tiny", "MKTAY")
	if s := e.Score(short, 0, 1); s != 0 {
		t.Errorf("short query scored %f", s)
	}
}

func TestSymmetryOfEvidence(t *testing.T) {
	// PIPE is not perfectly symmetric (profiles differ), but scores of
	// (a,b) and (b,a) must be strongly correlated: check they agree on
	// which pairs are hits at the acceptance threshold.
	pr, e := testSetup(t)
	rng := rand.New(rand.NewSource(5))
	var edges [][2]int
	pr.Graph.Edges(func(a, b int) bool {
		edges = append(edges, [2]int{a, b})
		return true
	})
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for _, ed := range edges[:20] {
		ab := e.ScorePair(ed[0], ed[1])
		ba := e.ScorePair(ed[1], ed[0])
		if (ab > 0.5) != (ba > 0.5) {
			t.Errorf("pair (%d,%d): asymmetric verdict %.3f vs %.3f", ed[0], ed[1], ab, ba)
		}
	}
}

func TestUnfilteredAblation(t *testing.T) {
	pr, _ := testSetup(t)
	eng, err := New(pr.Proteins, pr.Graph, Config{Unfiltered: true, CellSupport: 0.3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var edges [][2]int
	pr.Graph.Edges(func(a, b int) bool {
		edges = append(edges, [2]int{a, b})
		return true
	})
	s := eng.ScorePair(edges[0][0], edges[0][1])
	if s < 0 || s > 1 {
		t.Errorf("unfiltered score %f out of range", s)
	}
}

func TestDBQueryAndNewQueryAgree(t *testing.T) {
	pr, e := testSetup(t)
	id := 11
	fresh := e.NewQuery(pr.Proteins[id], 2)
	db := e.DBQuery(id)
	if fresh.Profile().NumProteins() != db.Profile().NumProteins() {
		t.Fatalf("profile sizes differ: %d vs %d",
			fresh.Profile().NumProteins(), db.Profile().NumProteins())
	}
	scorer := e.NewScorer()
	for _, target := range []int{0, 1, 2} {
		if scorer.Score(fresh, target) != scorer.Score(db, target) {
			t.Errorf("fresh and db queries score differently vs %d", target)
		}
	}
}

func TestConcurrentScoring(t *testing.T) {
	pr, e := testSetup(t)
	var wg sync.WaitGroup
	results := make([][]float64, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			scorer := e.NewScorer()
			q := e.DBQuery(g)
			for i := 0; i < 12; i++ {
				results[g] = append(results[g], scorer.Score(q, i))
			}
		}(g)
	}
	wg.Wait()
	// Cross-check two lanes against serial recomputation.
	scorer := e.NewScorer()
	for g := 0; g < 8; g += 7 {
		q := e.DBQuery(g)
		for i := 0; i < 12; i++ {
			if want := scorer.Score(q, i); results[g][i] != want {
				t.Fatalf("concurrent score [%d][%d] = %f, want %f", g, i, results[g][i], want)
			}
		}
	}
	_ = pr
}

// Database entries are built on first read. Eight goroutines scoring
// against every protein of a fresh engine at once must build each entry
// exactly once, all of them share it, and every score must equal the
// one an engine whose entries were all built beforehand gives.
func TestLazyEntriesBuiltOnceUnderConcurrentReads(t *testing.T) {
	pr, _ := testSetup(t)
	fresh, err := New(pr.Proteins, pr.Graph, Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	eager, err := New(pr.Proteins, pr.Graph, Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, len(pr.Proteins))
	for i := range ids {
		ids[i] = i
		eager.DBQuery(i)
	}
	if got := fresh.dbBuilt.Load(); got != 0 {
		t.Fatalf("a fresh engine has %d entries built, want 0", got)
	}
	rng := rand.New(rand.NewSource(8))
	queries := make([]seq.Sequence, 8)
	for g := range queries {
		queries[g] = pr.Proteins[rng.Intn(len(pr.Proteins))].WithName("q")
		if g%2 == 1 {
			queries[g] = seq.Random(rng, "q", 150, seq.YeastComposition())
		}
	}
	got := make([][]float64, len(queries))
	var wg sync.WaitGroup
	for g := range queries {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = fresh.ScoreMany(queries[g], ids, 2)
		}(g)
	}
	wg.Wait()
	if n := fresh.dbBuilt.Load(); n != int64(len(ids)) {
		t.Fatalf("%d entry builds for %d proteins", n, len(ids))
	}
	for g, q := range queries {
		want := eager.ScoreMany(q, ids, 1)
		for i := range ids {
			if got[g][i] != want[i] {
				t.Fatalf("query %d against %d: %v, eagerly built engine %v", g, i, got[g][i], want[i])
			}
		}
	}
	for _, id := range ids {
		if fresh.DBQuery(id) != fresh.DBQuery(id) || fresh.ScorePair(id, id) != eager.ScorePair(id, id) {
			t.Fatalf("entry %d is rebuilt or scores differently", id)
		}
	}
	if n := fresh.dbBuilt.Load(); n != int64(len(ids)) {
		t.Fatalf("%d entry builds after rereading every entry, want %d", n, len(ids))
	}
}

func TestAcceptanceThreshold(t *testing.T) {
	scores := make([]float64, 1000)
	for i := range scores {
		scores[i] = float64(i) / 1000
	}
	th := AcceptanceThreshold(scores, 0.005)
	if th < 0.99 || th > 1 {
		t.Errorf("threshold = %f, want ~0.995", th)
	}
	if AcceptanceThreshold(nil, 0.005) != 1 {
		t.Error("empty negatives should give threshold 1")
	}
	if th := AcceptanceThreshold([]float64{0.5}, 0.005); th != 0.5 {
		t.Errorf("single negative threshold = %f", th)
	}
}

func TestAcceptanceThresholdSeparatesClasses(t *testing.T) {
	pr, e := testSetup(t)
	rng := rand.New(rand.NewSource(6))
	comp := func(a, b int) bool {
		for _, ma := range pr.Motifs(a) {
			for _, mb := range pr.Motifs(b) {
				if pr.ComplementOf(ma) == mb {
					return true
				}
			}
		}
		return false
	}
	var neg []float64
	for len(neg) < 150 {
		a, b := rng.Intn(len(pr.Proteins)), rng.Intn(len(pr.Proteins))
		if a == b || pr.Graph.HasEdge(a, b) || comp(a, b) {
			continue
		}
		neg = append(neg, e.ScorePair(a, b))
	}
	th := AcceptanceThreshold(neg, 0.005)
	if th >= 1 || th <= 0 {
		t.Fatalf("threshold %f degenerate", th)
	}
	// A majority of known pairs should clear the threshold.
	var edges [][2]int
	pr.Graph.Edges(func(a, b int) bool {
		edges = append(edges, [2]int{a, b})
		return true
	})
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	accepted := 0
	const nPos = 40
	for _, ed := range edges[:nPos] {
		if e.ScorePair(ed[0], ed[1]) > th {
			accepted++
		}
	}
	if accepted < nPos/2 {
		t.Errorf("only %d/%d known pairs clear acceptance threshold %.3f", accepted, nPos, th)
	}
}

func TestHeapPushKeepsLargest(t *testing.T) {
	var h []float64
	vals := []float64{5, 1, 9, 3, 7, 2, 8, 6, 4, 0}
	for _, v := range vals {
		h = heapPush(h, v, 3)
	}
	if len(h) != 3 {
		t.Fatalf("heap size %d", len(h))
	}
	sort.Float64s(h)
	want := []float64{7, 8, 9}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("heap = %v, want top-3 %v", h, want)
		}
	}
}

func TestBoxSum1D(t *testing.T) {
	occ := []float32{1, 2, 3, 4, 5}
	got := boxSum1D(occ, 5, 1)
	want := []float64{3, 6, 9, 12, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("boxSum1D = %v, want %v", got, want)
		}
	}
	got0 := boxSum1D(occ, 5, 0)
	for i := range occ {
		if got0[i] != float64(occ[i]) {
			t.Fatal("radius-0 box sum should be identity")
		}
	}
}
