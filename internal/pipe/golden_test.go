package pipe

// Golden equivalence suite: a frozen copy of the seed map-based scoring
// kernel (Profile map + per-ID weight map + sorted key list, full-matrix
// scratch clearing) is kept here as the reference implementation. The
// CSR kernel must reproduce its scores BIT-IDENTICALLY — determinism of
// float accumulation order across processes is a documented invariant —
// across seeds, thread counts and every ablation configuration.

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/ga"
	"repro/internal/ppigraph"
	"repro/internal/seq"
	"repro/internal/simindex"
	"repro/internal/submat"
	"repro/internal/yeastgen"
)

// goldenQuery is the seed layout of a preprocessed sequence.
type goldenQuery struct {
	seq      seq.Sequence
	profile  simindex.Profile
	occCount []int32
	occW     []float32
	weights  map[int32][]float32
	order    []int32
}

// goldenFromQuery rebuilds the seed query layout from a CSR query,
// following the seed construction code path exactly (including its
// two-pass, sorted-order occW accumulation).
func goldenFromQuery(e *Engine, q *Query) *goldenQuery {
	prof := q.Profile().ToProfile()
	nw := q.Seq.NumWindows(e.cfg.Index.Window)
	if nw < 0 {
		nw = 0
	}
	g := &goldenQuery{
		seq:      q.Seq,
		profile:  prof,
		occCount: make([]int32, nw),
		occW:     make([]float32, nw),
		weights:  make(map[int32][]float32, len(prof)),
	}
	for id, entries := range prof {
		g.order = append(g.order, id)
		ws := make([]float32, len(entries))
		for k, ps := range entries {
			w := e.weightOf(ps.Score)
			ws[k] = w
			g.occCount[ps.Pos]++
		}
		g.weights[id] = ws
	}
	sort.Slice(g.order, func(i, j int) bool { return g.order[i] < g.order[j] })
	for _, id := range g.order {
		for k, ps := range prof[id] {
			g.occW[ps.Pos] += g.weights[id][k]
		}
	}
	return g
}

// goldenScore is the seed Score + topSpecificity, verbatim except that
// scratch is freshly allocated (the seed zeroed it in full every call,
// which is equivalent).
func goldenScore(e *Engine, q, b *goldenQuery) float64 {
	w := e.cfg.Index.Window
	n := q.seq.NumWindows(w)
	m := b.seq.NumWindows(w)
	if n <= 0 || m <= 0 {
		return 0
	}
	mat := make([]float32, n*m)
	evid := make([]uint16, n*m)
	stamp := make([]int32, n*m)
	horiz := make([]float32, n*m)
	for _, x := range q.order {
		aEntries := q.profile[x]
		aWeights := q.weights[x]
		xStamp := x + 1
		for _, y := range e.graph.Neighbors(int(x)) {
			bEntries, ok := b.profile[y]
			if !ok {
				continue
			}
			bWeights := b.weights[y]
			for ai, pa := range aEntries {
				wa := aWeights[ai]
				base := int(pa.Pos) * m
				row := mat[base : base+m]
				for bi, pb := range bEntries {
					row[pb.Pos] += wa * bWeights[bi]
					if stamp[base+int(pb.Pos)] != xStamp {
						stamp[base+int(pb.Pos)] = xStamp
						evid[base+int(pb.Pos)]++
					}
				}
			}
		}
	}

	r := e.cfg.FilterRadius
	if e.cfg.Unfiltered {
		r = 0
	}
	sumA := boxSum1D(q.occW, n, r)
	sumB := boxSum1D(b.occW, m, r)
	for i := 0; i < n; i++ {
		row := mat[i*m : i*m+m]
		var acc float32
		for j := 0; j <= r && j < m; j++ {
			acc += row[j]
		}
		out := horiz[i*m : i*m+m]
		for j := 0; j < m; j++ {
			out[j] = acc
			if j+r+1 < m {
				acc += row[j+r+1]
			}
			if j-r >= 0 {
				acc -= row[j-r]
			}
		}
	}
	k := int(e.cfg.TopFrac * float64(n*m))
	if k < 1 {
		k = 1
	}
	top := make([]float64, 0, k)
	colAcc := make([]float32, m)
	for i := 0; i <= r && i < n; i++ {
		for j := 0; j < m; j++ {
			colAcc[j] += horiz[i*m+j]
		}
	}
	support := float32(e.cfg.CellSupport)
	alpha := e.cfg.Pseudocount
	minOcc := int32(e.cfg.MinOcc)
	minEvid := uint16(e.cfg.MinEvidence)
	occA, occB := q.occCount, b.occCount
	for i := 0; i < n; i++ {
		sa := sumA[i]
		for j := 0; j < m; j++ {
			cnt := colAcc[j]
			if cnt >= support && evid[i*m+j] >= minEvid &&
				occA[i] >= minOcc && occB[j] >= minOcc && sa > 0 && sumB[j] > 0 {
				v := float64(cnt) / (sa*sumB[j] + alpha)
				if v > 1 {
					v = 1
				}
				top = goldenHeapPush(top, v, k)
			}
		}
		if i+r+1 < n {
			row := horiz[(i+r+1)*m : (i+r+1)*m+m]
			for j := 0; j < m; j++ {
				colAcc[j] += row[j]
			}
		}
		if i-r >= 0 {
			row := horiz[(i-r)*m : (i-r)*m+m]
			for j := 0; j < m; j++ {
				colAcc[j] -= row[j]
			}
		}
	}
	if len(top) == 0 {
		return 0
	}
	total := 0.0
	for _, v := range top {
		total += v
	}
	raw := total / float64(k)
	return raw / (raw + e.cfg.ScoreScale)
}

// goldenHeapPush is the seed heapPush (swapping sifts), frozen beside
// the seed kernel that calls it: the engine's heapPush must leave the
// same array, because the top-K mean sums it in array order.
func goldenHeapPush(h []float64, v float64, k int) []float64 {
	if len(h) < k {
		h = append(h, v)
		i := len(h) - 1
		for i > 0 {
			p := (i - 1) / 2
			if h[p] <= h[i] {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		return h
	}
	if v <= h[0] {
		return h
	}
	h[0] = v
	i := 0
	for {
		l, rr := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && h[l] < h[smallest] {
			smallest = l
		}
		if rr < len(h) && h[rr] < h[smallest] {
			smallest = rr
		}
		if smallest == i {
			return h
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// TestHeapPushMatchesSwappingSift drives both heaps with the same
// values — random, runs of ties, ascending and descending stretches, at
// capacities around the child-count edge cases — and requires identical
// arrays after every push.
func TestHeapPushMatchesSwappingSift(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{1, 2, 3, 4, 7, 8, 33} {
		var got, want []float64
		for i := 0; i < 600; i++ {
			var v float64
			switch (i / 50) % 4 {
			case 0:
				v = rng.Float64()
			case 1:
				v = float64(rng.Intn(4)) / 4 // ties
			case 2:
				v = float64(i) / 600
			default:
				v = 1 - float64(i)/600
			}
			got, want = heapPush(got, v, k), goldenHeapPush(want, v, k)
			if len(got) != len(want) {
				t.Fatalf("k=%d push %d: len %d, want %d", k, i, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("k=%d push %d (%v): heap %v, swapping sift %v", k, i, v, got, want)
				}
			}
		}
	}
}

// goldenConfigs are the ablation configurations the equivalence suite
// covers: the default engine plus every scoring knob the ISSUE names.
func goldenConfigs() map[string]Config {
	return map[string]Config{
		"default":    {},
		"unfiltered": {Unfiltered: true, CellSupport: 0.3},
		"minocc1":    {MinOcc: 1, MinEvidence: 1},
		"weightcap":  {WeightCap: 2.5, WeightScale: 25},
		"blosum62":   {Index: simindex.Config{Matrix: submat.BLOSUM62()}},
	}
}

func TestCSRKernelMatchesGoldenKernel(t *testing.T) {
	pr, defaultEngine := testSetup(t)
	for name, cfg := range goldenConfigs() {
		t.Run(name, func(t *testing.T) {
			e := defaultEngine
			if name != "default" {
				var err error
				e, err = New(pr.Proteins, pr.Graph, cfg, 0)
				if err != nil {
					t.Fatal(err)
				}
			}
			// Golden contexts for a subset of database proteins.
			golden := make(map[int]*goldenQuery)
			gq := func(id int) *goldenQuery {
				if g, ok := golden[id]; ok {
					return g
				}
				g := goldenFromQuery(e, e.DBQuery(id))
				golden[id] = g
				return g
			}
			scorer := e.NewScorer()
			rng := rand.New(rand.NewSource(int64(len(name))))
			// Database pairs, reusing one scorer so the sparse-reset path
			// is exercised across many sizes in sequence.
			for trial := 0; trial < 25; trial++ {
				a := rng.Intn(len(pr.Proteins))
				b := rng.Intn(len(pr.Proteins))
				want := goldenScore(e, gq(a), gq(b))
				got := scorer.Score(e.DBQuery(a), b)
				if got != want {
					t.Fatalf("ScorePair(%d,%d) = %v, golden kernel %v (diff %g)",
						a, b, got, want, math.Abs(got-want))
				}
			}
			// Synthetic candidates across thread counts, like the GA emits.
			for trial := 0; trial < 5; trial++ {
				cand := seq.Random(rng, "cand", 90+rng.Intn(120), seq.YeastComposition())
				for _, threads := range []int{1, 3} {
					q := e.NewQuery(cand, threads)
					g := goldenFromQuery(e, q)
					for _, b := range []int{0, 7, 19} {
						want := goldenScore(e, g, gq(b))
						if got := scorer.Score(q, b); got != want {
							t.Fatalf("Score(cand@%d threads, %d) = %v, golden %v",
								threads, b, got, want)
						}
					}
				}
			}
		})
	}
}

// TestCSRQueryMatchesGoldenLayout checks the derived per-window vectors
// — including the float32 occW sums whose accumulation order the CSR
// layout must preserve — are bit-identical to the seed construction.
func TestCSRQueryMatchesGoldenLayout(t *testing.T) {
	pr, e := testSetup(t)
	rng := rand.New(rand.NewSource(77))
	queries := []*Query{e.DBQuery(0), e.DBQuery(5), e.DBQuery(17)}
	for i := 0; i < 4; i++ {
		queries = append(queries,
			e.NewQuery(seq.Random(rng, "q", 80+rng.Intn(150), seq.YeastComposition()), 1+i))
	}
	for qi, q := range queries {
		g := goldenFromQuery(e, q)
		if len(q.occCount) != len(g.occCount) || len(q.occW) != len(g.occW) {
			t.Fatalf("query %d: vector lengths differ", qi)
		}
		for i := range g.occCount {
			if q.occCount[i] != g.occCount[i] {
				t.Fatalf("query %d: occCount[%d] = %d, golden %d", qi, i, q.occCount[i], g.occCount[i])
			}
			if q.occW[i] != g.occW[i] {
				t.Fatalf("query %d: occW[%d] = %v, golden %v (accumulation order changed)",
					qi, i, q.occW[i], g.occW[i])
			}
		}
		// The target-side vectors (database entries only: a candidate is
		// never a target) and CSR weights agree with the maps.
		prof := q.Profile()
		isDB := qi < 3
		if (q.eligCols != nil) != isDB || !isDB && q.eligBoxOcc != nil {
			t.Fatalf("query %d (database entry: %v) carries the wrong target-side vectors", qi, isDB)
		}
		for r, id := range prof.IDs {
			ws := g.weights[id]
			lo := prof.Offsets[r]
			for k := range ws {
				if q.weight[int(lo)+k] != ws[k] {
					t.Fatalf("query %d protein %d: weight[%d] = %v, golden %v",
						qi, id, k, q.weight[int(lo)+k], ws[k])
				}
			}
		}
		_ = pr
	}
}

// TestScoreManyDeterministicAcrossThreads is the determinism property
// test: the same query scored under nThreads ∈ {1, 2, 8} must produce
// identical floats, both for query construction and batch scoring.
func TestScoreManyDeterministicAcrossThreads(t *testing.T) {
	pr, e := testSetup(t)
	rng := rand.New(rand.NewSource(99))
	ids := make([]int, len(pr.Proteins))
	for i := range ids {
		ids[i] = i
	}
	for trial := 0; trial < 3; trial++ {
		q := seq.Random(rng, "q", 120+30*trial, seq.YeastComposition())
		base := e.ScoreMany(q, ids, 1)
		for _, threads := range []int{2, 8} {
			got := e.ScoreMany(q, ids, threads)
			for i := range base {
				if got[i] != base[i] {
					t.Fatalf("trial %d: ScoreMany[%d] differs at %d threads: %v vs %v",
						trial, i, threads, got[i], base[i])
				}
			}
		}
	}
}

// TestScoreManyFewerTasksThanThreads pins the satellite fix: nThreads
// larger than the task list must not break results (and must not spawn
// idle goroutines — verified by the capped code path returning the same
// values).
func TestScoreManyFewerTasksThanThreads(t *testing.T) {
	pr, e := testSetup(t)
	q := pr.Proteins[3]
	if out := e.ScoreMany(q, nil, 8); len(out) != 0 {
		t.Fatalf("empty id list returned %d scores", len(out))
	}
	ids := []int{2}
	one := e.ScoreMany(q, ids, 16)
	if len(one) != 1 {
		t.Fatalf("got %d scores for 1 id", len(one))
	}
	if want := e.ScoreMany(q, ids, 1)[0]; one[0] != want {
		t.Fatalf("capped thread count changed score: %v vs %v", one[0], want)
	}
}

// TestSparseResetAcrossShapes stresses the touched-row reset invariant:
// a scorer reused across queries and targets of many shapes (growing,
// shrinking, dense, sparse) must match a fresh scorer on every call.
func TestSparseResetAcrossShapes(t *testing.T) {
	pr, e := testSetup(t)
	rng := rand.New(rand.NewSource(13))
	reused := e.NewScorer()
	for trial := 0; trial < 40; trial++ {
		var q *Query
		if trial%3 == 0 {
			q = e.NewQuery(seq.Random(rng, "q", 60+rng.Intn(200), seq.YeastComposition()), 1)
		} else {
			q = e.DBQuery(rng.Intn(len(pr.Proteins)))
		}
		b := rng.Intn(len(pr.Proteins))
		want := e.NewScorer().Score(q, b)
		if got := reused.Score(q, b); got != want {
			t.Fatalf("trial %d: reused scorer %v, fresh scorer %v", trial, got, want)
		}
	}
	// Large, small, large again: the compact filter matrix is not zeroed
	// between calls, so whatever the large call left in it must not leak
	// into the small one, nor the reverse.
	large, small := 0, 0
	for id, p := range pr.Proteins {
		if p.Len() > pr.Proteins[large].Len() {
			large = id
		}
		if p.Len() < pr.Proteins[small].Len() {
			small = id
		}
	}
	type step struct {
		q *Query
		b int
	}
	replay := func(label string, e *Engine, reused *Scorer, steps []step) {
		t.Helper()
		for i, c := range steps {
			want := e.NewScorer().Score(c.q, c.b)
			if got := reused.Score(c.q, c.b); got != want {
				t.Fatalf("%s step %d: reused scorer %v, fresh scorer %v", label, i, got, want)
			}
		}
	}
	shortSeq := seq.MustNew("short", pr.Proteins[large].Residues()[:30])
	replay("large/small", e, reused, []step{{e.DBQuery(large), large}, {e.NewQuery(shortSeq, 1), small},
		{e.DBQuery(large), large}, {e.DBQuery(small), large}, {e.DBQuery(large), small}})
	// The same with evidence rows of different strides: at MinOcc 1 the
	// widest target's eligible columns fill three words and the narrowest
	// one's two, so a plane the wide call left set would sit in some other
	// row, or at the floor of some other column, of the narrow call.
	e1, err := New(pr.Proteins, pr.Graph, Config{MinOcc: 1, MinEvidence: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	wide, narrow := 0, 0
	for id := range e1.db {
		q := e1.DBQuery(id)
		if len(q.eligCols) > len(e1.DBQuery(wide).eligCols) {
			wide = id
		}
		if len(q.eligCols) < len(e1.DBQuery(narrow).eligCols) {
			narrow = id
		}
	}
	if nw, nn := len(e1.DBQuery(wide).eligCols), len(e1.DBQuery(narrow).eligCols); (nw+63)/64 == (nn+63)/64 {
		t.Fatalf("widest target has %d eligible columns, narrowest %d: same evidence stride", nw, nn)
	}
	replay("wide/narrow", e1, e1.NewScorer(), []step{{e1.DBQuery(wide), wide}, {e1.NewQuery(shortSeq, 1), narrow},
		{e1.DBQuery(narrow), narrow}, {e1.DBQuery(wide), wide}, {e1.DBQuery(narrow), wide}, {e1.DBQuery(wide), narrow}})
}

// TestAcquireScorerRoundTrip covers the engine's scorer pool.
func TestAcquireScorerRoundTrip(t *testing.T) {
	_, e := testSetup(t)
	s1 := e.AcquireScorer()
	want := s1.Score(e.DBQuery(1), 2)
	e.ReleaseScorer(s1)
	s2 := e.AcquireScorer()
	defer e.ReleaseScorer(s2)
	if got := s2.Score(e.DBQuery(1), 2); got != want {
		t.Fatalf("pooled scorer: %v, want %v", got, want)
	}
}

// The shape suite hand-builds tiny engines so each structural edge of the
// sweep — chain groups and their padded tail, windows narrower than the
// box, a span against either matrix edge, the eligible-column compaction
// at both extremes, evidence reached through several neighbors, evidence
// words and planes beyond the first, a counter held at its floor — is
// hit on purpose and compared with the frozen seed kernel.

// shapeRow is one profile row: the windows similar to one protein, with
// scores spread so the graded weights differ from cell to cell.
func shapeRow(id int32, positions ...int32) []simindex.PosScore {
	row := make([]simindex.PosScore, len(positions))
	for i, pos := range positions {
		row[i] = simindex.PosScore{Pos: pos, Score: 36 + (pos*7+id*13)%45}
	}
	return row
}

func seqRange(lo, hi int32) []int32 {
	var out []int32
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// shapeProteins is the size of a hand-built proteome: protein 0 is the
// target, 1..7 stand for the evidence proteins X and their partners Y.
const shapeProteins = 8

// shapeEngine builds an engine whose protein 0 has m windows and the
// given profile; the others carry no profile of their own.
func shapeEngine(t testing.TB, cfg Config, m int, edges [][2]int, target simindex.Profile) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(m)))
	proteins := make([]seq.Sequence, shapeProteins)
	profiles := make([]simindex.FlatProfile, shapeProteins)
	names := []string{"T", "X1", "X2", "Y3", "Y4", "Y5", "Z6", "Z7"}
	b := ppigraph.NewBuilder()
	for i := range proteins {
		length := 30
		if i == 0 {
			length = m + 19
		}
		proteins[i] = seq.Random(rng, names[i], length, seq.YeastComposition())
		profiles[i] = simindex.FlatFromProfile(nil)
		b.AddProtein(names[i])
	}
	profiles[0] = simindex.FlatFromProfile(target)
	for _, ed := range edges {
		b.AddEdgeID(ed[0], ed[1])
	}
	return tableEngine(t, proteins, b.Build(), cfg, profiles)
}

// shapeQuery is a query with n windows and a hand-written profile.
func shapeQuery(e *Engine, n int, prof simindex.Profile) *Query {
	s := seq.Random(rand.New(rand.NewSource(int64(n))), "q", n+19, seq.YeastComposition())
	return e.newQueryFromProfile(s, simindex.FlatFromProfile(prof), false)
}

// shapeCheck scores (q, protein 0) three times on one Scorer — fresh on
// the first call, reused after — against the seed kernel.
func shapeCheck(t *testing.T, e *Engine, q *Query) float64 {
	t.Helper()
	want := goldenScore(e, goldenFromQuery(e, q), goldenFromQuery(e, e.DBQuery(0)))
	reused := e.NewScorer()
	for call := 0; call < 3; call++ {
		if got := reused.Score(q, 0); got != want {
			t.Fatalf("call %d: Score = %v, seed kernel %v", call, got, want)
		}
	}
	return want
}

// shapeRadii are the filter settings every shape is run under.
func shapeRadii() map[string]Config {
	return map[string]Config{
		"r1":         {FilterRadius: 1, CellSupport: 0.05},
		"r2":         {FilterRadius: 2, CellSupport: 0.05},
		"r3":         {FilterRadius: 3, CellSupport: 0.05},
		"unfiltered": {Unfiltered: true, CellSupport: 0.05},
	}
}

// shapeEdges wires X1 to Y3 and Y4 and X2 to Y4: two evidence proteins
// reach whatever columns Y4 covers.
var shapeEdges = [][2]int{{1, 3}, {1, 4}, {2, 4}}

func TestShapeTouchedRowCounts(t *testing.T) {
	rows := []int32{0, 2, 3, 5, 6, 8, 9, 11}
	target := simindex.Profile{3: shapeRow(3, 2, 3, 4, 9), 4: shapeRow(4, 3, 4, 5)}
	for name, cfg := range shapeRadii() {
		e := shapeEngine(t, cfg, 15, shapeEdges, target)
		for _, touched := range []int{0, 1, 3, 4, 5, 8} {
			prof := simindex.Profile{1: shapeRow(1, rows[:touched]...), 2: shapeRow(2, rows[:touched]...)}
			if touched == 0 {
				// Similar only to a protein with no partner in the target.
				prof = simindex.Profile{6: shapeRow(6, 1, 2), 7: shapeRow(7, 1, 2)}
			}
			got := shapeCheck(t, e, shapeQuery(e, 12, prof))
			if (got > 0) != (touched > 0) {
				t.Errorf("%s, %d touched rows: score %v", name, touched, got)
			}
		}
	}
}

func TestShapeNarrowTargets(t *testing.T) {
	for name, cfg := range shapeRadii() {
		r := cfg.FilterRadius
		for _, m := range []int{1, 2, 2*r + 1, 2*r + 2, 2*r + 3} {
			// Every column is covered by both partners: all eligible, and
			// the span runs from column 0 to column m-1.
			all := seqRange(0, int32(m))
			e := shapeEngine(t, cfg, m, shapeEdges, simindex.Profile{3: shapeRow(3, all...), 4: shapeRow(4, all...)})
			if len(e.DBQuery(0).eligCols) != m {
				t.Fatalf("%s m=%d: %d eligible columns", name, m, len(e.DBQuery(0).eligCols))
			}
			for _, n := range []int{1, 2*r + 2, 2*r + 5} {
				qa := seqRange(0, int32(n))
				q := shapeQuery(e, n, simindex.Profile{1: shapeRow(1, qa...), 2: shapeRow(2, qa...)})
				if got := shapeCheck(t, e, q); got <= 0 {
					t.Errorf("%s m=%d n=%d: score %v", name, m, n, got)
				}
			}
		}
	}
}

func TestShapeSpanAtMatrixEdges(t *testing.T) {
	const m = 15
	for name, cfg := range shapeRadii() {
		for edge, target := range map[string]simindex.Profile{
			"left":  {3: shapeRow(3, 0, 1), 4: shapeRow(4, 0, 1, 2)},
			"right": {3: shapeRow(3, m-2, m-1), 4: shapeRow(4, m-3, m-2, m-1)},
			"both":  {3: shapeRow(3, 0, m-1), 4: shapeRow(4, 0, 1, m-2, m-1)},
		} {
			e := shapeEngine(t, cfg, m, shapeEdges, target)
			// Query rows at both matrix edges too.
			q := shapeQuery(e, 9, simindex.Profile{1: shapeRow(1, 0, 1, 7, 8), 2: shapeRow(2, 0, 1, 8)})
			if got := shapeCheck(t, e, q); got <= 0 {
				t.Errorf("%s %s: score %v", name, edge, got)
			}
		}
	}
}

func TestShapeNoEligibleColumnInSpan(t *testing.T) {
	for name, cfg := range shapeRadii() {
		// Columns 5-6 take mass but only Y3 covers them (MinOcc 2 makes
		// them ineligible); the eligible columns 10-11 belong to proteins
		// no evidence protein is wired to, outside the span.
		target := simindex.Profile{3: shapeRow(3, 5, 6), 6: shapeRow(6, 10, 11), 7: shapeRow(7, 10, 11)}
		e := shapeEngine(t, cfg, 15, shapeEdges, target)
		if got := e.DBQuery(0).eligCols; len(got) != 2 || got[0] != 10 {
			t.Fatalf("%s: eligible columns %v", name, got)
		}
		q := shapeQuery(e, 9, simindex.Profile{1: shapeRow(1, 2, 3, 4), 2: shapeRow(2, 2, 3, 4)})
		if got := shapeCheck(t, e, q); got != 0 {
			t.Errorf("%s: score %v with no eligible column in the span", name, got)
		}
	}
}

// TestShapeEvidenceThroughSeveralNeighbors is the case the seed kernel's
// per-cell stamp existed for: X1 reaches column 7 through Y3, Y4 and Y5,
// which is still one evidence protein, below MinEvidence 2. Wiring X2 in
// as well makes it two.
func TestShapeEvidenceThroughSeveralNeighbors(t *testing.T) {
	target := simindex.Profile{3: shapeRow(3, 6, 7), 4: shapeRow(4, 7, 8), 5: shapeRow(5, 7)}
	prof := simindex.Profile{1: shapeRow(1, 2, 3, 4), 2: shapeRow(2, 2, 3, 4)}
	for name, cfg := range shapeRadii() {
		one := shapeEngine(t, cfg, 15, [][2]int{{1, 3}, {1, 4}, {1, 5}}, target)
		if got := shapeCheck(t, one, shapeQuery(one, 9, prof)); got != 0 {
			t.Errorf("%s: one evidence protein through three partners scored %v", name, got)
		}
		// With a floor of one the same cells pass, on every call: a column
		// stamp surviving from the previous call would hide X1 from it.
		cfg.MinEvidence = 1
		floor1 := shapeEngine(t, cfg, 15, [][2]int{{1, 3}, {1, 4}, {1, 5}}, target)
		if got := shapeCheck(t, floor1, shapeQuery(floor1, 9, prof)); got <= 0 {
			t.Errorf("%s: MinEvidence 1 scored %v", name, got)
		}
		cfg.MinEvidence = 2
		two := shapeEngine(t, cfg, 15, [][2]int{{1, 3}, {1, 4}, {1, 5}, {2, 5}}, target)
		if got := shapeCheck(t, two, shapeQuery(two, 9, prof)); got <= 0 {
			t.Errorf("%s: two evidence proteins scored %v", name, got)
		}
	}
}

// TestShapeWideTargets gives the target more than 64 and more than 128
// eligible columns, so a column mask and an evidence row take two and
// three words, and lands the mass in a span whose first and last
// eligible columns both sit inside a word.
func TestShapeWideTargets(t *testing.T) {
	for name, cfg := range shapeRadii() {
		for _, c := range []struct {
			m, over int
			lo, hi  int32 // the span: Y3 covers [lo, hi), Y4 five columns less at either end
		}{{100, 64, 31, 92}, {300, 128, 100, 290}} {
			// Z6 and Z7, wired to nothing, make two columns in three
			// eligible; inside the span Y3 and Y4 add the third.
			var twoOfThree []int32
			for j := int32(0); j < int32(c.m); j++ {
				if j%3 != 0 {
					twoOfThree = append(twoOfThree, j)
				}
			}
			e := shapeEngine(t, cfg, c.m, shapeEdges, simindex.Profile{
				3: shapeRow(3, seqRange(c.lo, c.hi)...), 4: shapeRow(4, seqRange(c.lo+5, c.hi-5)...),
				6: shapeRow(6, twoOfThree...), 7: shapeRow(7, twoOfThree...),
			})
			b := e.DBQuery(0)
			if len(b.eligCols) <= c.over {
				t.Fatalf("%s m=%d: %d eligible columns, want more than %d", name, c.m, len(b.eligCols), c.over)
			}
			if c0, c1 := b.eligIdx[c.lo], b.eligIdx[c.hi-1]+1; c0 < 0 || c1 <= 0 || c0%64 == 0 || c1%64 == 0 || c0/64 == (c1-1)/64 {
				t.Fatalf("%s m=%d: span covers eligible columns [%d, %d), want word-crossing with both ends mid-word", name, c.m, c0, c1)
			}
			q := shapeQuery(e, 12, simindex.Profile{1: shapeRow(1, 2, 3, 4, 7), 2: shapeRow(2, 3, 4, 5)})
			if got := shapeCheck(t, e, q); got <= 0 {
				t.Errorf("%s m=%d: score %v", name, c.m, got)
			}
		}
	}
}

// TestShapeEvidenceSaturates puts one to six evidence proteins on the
// same cells, at floors of two, three and five (two, two and three
// planes): the cells pass exactly when the proteins reach the floor, so
// a counter that wrapped past it (six is 2 mod 4) or stopped short of it
// shows. At the largest floor, sixteen planes, nothing passes.
func TestShapeEvidenceSaturates(t *testing.T) {
	var edges [][2]int
	for x := 1; x <= 6; x++ {
		edges = append(edges, [2]int{x, 7})
	}
	target := simindex.Profile{7: shapeRow(7, 5, 6, 7, 11)}
	for name, cfg := range shapeRadii() {
		cfg.MinOcc = 1
		for _, floor := range []int{2, 3, 5, 65535} {
			cfg.MinEvidence = floor
			e := shapeEngine(t, cfg, 15, edges, target)
			prof := simindex.Profile{}
			for x := int32(1); x <= 6; x++ {
				prof[x] = shapeRow(x, 2, 3, 4)
				got := shapeCheck(t, e, shapeQuery(e, 9, prof))
				if (got > 0) != (int(x) >= floor) {
					t.Errorf("%s: %d evidence proteins at MinEvidence %d scored %v", name, x, floor, got)
				}
			}
		}
	}
}

// floorCensus runs Score's accumulation of (q, target id) on s and
// returns whether mass landed and floorBounds' answer, leaving the
// scratch all-zero.
func floorCensus(s *Scorer, q *Query, id int) (mass bool, lastRow, f0, f1 int) {
	e, b := s.e, s.e.DBQuery(id)
	w := e.cfg.Index.Window
	n, m := q.Seq.NumWindows(w), b.Seq.NumWindows(w)
	if n <= 0 || len(b.eligCols) == 0 {
		return false, -1, 0, 0
	}
	minEvid := uint(e.cfg.MinEvidence)
	nw, planes := (len(b.eligCols)+63)/64, bits.Len(minEvid)
	s.grow(n, m, nw, nw*planes)
	colLo, colHi := s.accumulate(q, b, m, planes, minEvid)
	if colHi < colLo {
		return false, -1, 0, 0
	}
	lastRow, f0, f1 = s.floorBounds(q, planes, minEvid)
	s.reset(n, m, nw*planes, 0, colLo, colHi)
	return true, lastRow, f0, f1
}

func allZero[T comparable](xs []T) bool {
	var zero T
	for _, x := range xs {
		if x != zero {
			return false
		}
	}
	return true
}

// TestShapeMassWithoutFloor lands mass where no cell reaches the
// evidence floor — one evidence protein under a floor of 2, two under 3,
// six under 65535, one of three under 2, and at a floor of 1 mass on
// columns no evidence is counted in — and requires score 0 from a Scorer
// whose evidence pass put no mass in mat, that smoothed nothing and that
// left its scratch all-zero.
func TestShapeMassWithoutFloor(t *testing.T) {
	xs := func(k int) simindex.Profile {
		prof := simindex.Profile{}
		for x := int32(1); x <= int32(k); x++ {
			prof[x] = shapeRow(x, 2, 3, 4)
		}
		return prof
	}
	onto7 := [][2]int{{1, 7}, {2, 7}, {3, 7}, {4, 7}, {5, 7}, {6, 7}}
	cases := []struct {
		name          string
		minOcc, floor int
		edges         [][2]int
		target, prof  simindex.Profile
	}{
		{"one protein at floor 2", 2, 2, [][2]int{{1, 3}, {1, 4}, {1, 5}},
			simindex.Profile{3: shapeRow(3, 6, 7), 4: shapeRow(4, 7, 8), 5: shapeRow(5, 7)}, xs(2)},
		{"two proteins at floor 3", 1, 3, onto7[:2], simindex.Profile{7: shapeRow(7, 5, 6, 7, 11)}, xs(2)},
		{"six proteins at floor 65535", 1, 65535, onto7, simindex.Profile{7: shapeRow(7, 5, 6, 7, 11)}, xs(6)},
		// Proteins 2 and 3 are wired to Y5, which the target has no row
		// for: three evidence proteins are similar to the query, one lands.
		{"one of three proteins lands at floor 2", 1, 2, [][2]int{{1, 7}, {2, 5}, {3, 5}},
			simindex.Profile{7: shapeRow(7, 5, 6, 7, 11)}, xs(3)},
		{"ineligible columns at floor 1", 2, 1, shapeEdges,
			simindex.Profile{3: shapeRow(3, 5, 6), 6: shapeRow(6, 10, 11), 7: shapeRow(7, 10, 11)}, xs(2)},
	}
	for name, cfg := range shapeRadii() {
		for _, c := range cases {
			cfg.MinOcc, cfg.MinEvidence = c.minOcc, c.floor
			e := shapeEngine(t, cfg, 15, c.edges, c.target)
			q := shapeQuery(e, 9, c.prof)
			if mass, lastRow, _, _ := floorCensus(e.NewScorer(), q, 0); !mass || lastRow >= 0 {
				t.Fatalf("%s, %s: mass %v, last floor row %d", name, c.name, mass, lastRow)
			}
			ev, b := e.NewScorer(), e.DBQuery(0)
			nw, planes := (len(b.eligCols)+63)/64, bits.Len(uint(c.floor))
			ev.grow(9, 15, nw, nw*planes)
			ev.accumulate(q, b, 15, planes, uint(c.floor))
			if !allZero(ev.mat) {
				t.Errorf("%s, %s: the evidence pass put mass in mat", name, c.name)
			}
			if got := shapeCheck(t, e, q); got != 0 {
				t.Errorf("%s, %s: score %v", name, c.name, got)
			}
			fresh := e.NewScorer()
			fresh.Score(q, 0)
			if fresh.filt != nil {
				t.Errorf("%s, %s: smoothed with no cell at the floor", name, c.name)
			}
			if !allZero(fresh.mat) || !allZero(fresh.evid) || !allZero(fresh.colMask) || !allZero(fresh.rowSlot) {
				t.Errorf("%s, %s: scratch not all-zero after the call", name, c.name)
			}
		}
	}
}

// TestShapeFloorRowReach puts the evidence floor in row L = 2 only and
// touches, with mass under the floor, the rows r and r+1 below it and two
// rows far below: at floors 1 and 2 through one evidence protein on rows
// only it covers (query-ineligible at MinOcc 2), at floor 3 through two.
// The floor row's box reads row L+r and not L+r+1.
func TestShapeFloorRowReach(t *testing.T) {
	const L = 2
	// X1, X2 and Z6 are evidence proteins, each wired to Y3 and Y4, which
	// cover the eligible columns 4-10; Z7 is wired to nothing.
	var edges [][2]int
	for _, x := range []int{1, 2, 6} {
		edges = append(edges, [2]int{x, 3}, [2]int{x, 4})
	}
	target := simindex.Profile{3: shapeRow(3, seqRange(4, 11)...), 4: shapeRow(4, seqRange(4, 11)...)}
	for name, cfg := range shapeRadii() {
		r := int32(cfg.FilterRadius)
		if cfg.Unfiltered {
			r = 0
		}
		var below []int32
		for _, row := range []int32{L + r, L + r + 1, 12, 13} {
			if row != L {
				below = append(below, row)
			}
		}
		for _, floor := range []int{1, 2, 3} {
			cfg.MinEvidence = floor
			e := shapeEngine(t, cfg, 15, edges, target)
			// The floor row: `floor` evidence proteins and Z7, so it passes
			// MinOcc 2 at every floor; the rows below: one evidence protein
			// fewer, at least one.
			evid := []int32{1, 2, 6}
			prof := simindex.Profile{7: shapeRow(7, L)}
			for _, x := range evid[:floor] {
				prof[x] = shapeRow(x, L)
			}
			for _, x := range evid[:max(floor-1, 1)] {
				prof[x] = append(prof[x], shapeRow(x, below...)...)
			}
			q := shapeQuery(e, 14, prof)
			if _, lastRow, _, _ := floorCensus(e.NewScorer(), q, 0); lastRow != L {
				t.Fatalf("%s floor %d: last floor row %d, want %d", name, floor, lastRow, L)
			}
			if got := shapeCheck(t, e, q); got <= 0 {
				t.Errorf("%s floor %d: score %v", name, floor, got)
			}
		}
	}
}

// TestShapeFloorColumnsAcrossWords puts the floor columns, eligible
// columns 50-79, across the first two words of an evidence row, with
// eligible columns short of the floor on both sides inside the span
// (30-49, 80-99) and outside it (0-29).
func TestShapeFloorColumnsAcrossWords(t *testing.T) {
	// At MinOcc 1 every covered column is eligible: Z6, wired to nothing,
	// covers 0-29; X1 reaches 30-99 through Y3 and 50-79 through Y4, X2
	// 50-79 through Y4.
	target := simindex.Profile{
		3: shapeRow(3, seqRange(30, 100)...), 4: shapeRow(4, seqRange(50, 80)...),
		6: shapeRow(6, seqRange(0, 30)...),
	}
	prof := simindex.Profile{1: shapeRow(1, 2, 3, 4, 7), 2: shapeRow(2, 3, 4, 5)}
	for name, cfg := range shapeRadii() {
		cfg.MinOcc = 1
		e := shapeEngine(t, cfg, 120, shapeEdges, target)
		q := shapeQuery(e, 12, prof)
		if _, _, f0, f1 := floorCensus(e.NewScorer(), q, 0); f0 != 50 || f1 != 80 {
			t.Fatalf("%s: floor columns [%d, %d), want [50, 80)", name, f0, f1)
		}
		if got := shapeCheck(t, e, q); got <= 0 {
			t.Errorf("%s: score %v", name, got)
		}
	}
}

// TestShapeFloorColumnReach puts the last evidence-floor column at C and
// lands mass under the floor, in the floor rows, at columns C+r and
// C+r+1 and two far to the right, with TopFrac 1 so every floor cell
// counts: the last floor column's box reads column C+r and not C+r+1.
// Mid-row, the columns right of the floor are covered by Y5 alone,
// through X1 only: target-ineligible at MinOcc 2 and a floor of 1, and
// with Z7 eligible but one evidence protein short at floors 2 and 3. At
// the word end C is eligible column 63, the last of the first evidence
// word, with eligible columns beyond it in the second word.
func TestShapeFloorColumnReach(t *testing.T) {
	// X1, X2 and Z6 are evidence proteins, each wired to Y3 and Y4, which
	// cover the floor columns; X1 is also wired to Y5.
	edges := [][2]int{{1, 5}}
	for _, x := range []int{1, 2, 6} {
		edges = append(edges, [2]int{x, 3}, [2]int{x, 4})
	}
	cases := []struct {
		name       string
		m, minOcc  int
		lo, c      int32 // the floor columns [lo, c]
		floors     []int
		before     []int32 // eligible columns left of the floor, covered by Z7 alone (floors > 1)
		far        []int32
		wantF0, f1 int
	}{
		{"mid-row", 16, 2, 4, 6, []int{1, 2, 3}, nil, []int32{13, 14}, 0, 3},
		{"word end", 120, 1, 60, 63, []int{2}, seqRange(0, 60), []int32{100, 101}, 60, 64},
	}
	for name, cfg := range shapeRadii() {
		r := int32(cfg.FilterRadius)
		if cfg.Unfiltered {
			r = 0
		}
		cfg.TopFrac = 1
		for _, c := range cases {
			var beyond []int32
			for _, col := range append([]int32{c.c + r, c.c + r + 1}, c.far...) {
				if col != c.c {
					beyond = append(beyond, col)
				}
			}
			cfg.MinOcc = c.minOcc
			for _, floor := range c.floors {
				cfg.MinEvidence = floor
				target := simindex.Profile{
					3: shapeRow(3, seqRange(c.lo, c.c+1)...), 4: shapeRow(4, seqRange(c.lo, c.c+1)...),
					5: shapeRow(5, beyond...),
				}
				if z7 := slices.Concat(c.before, beyond); floor > 1 {
					target[7] = shapeRow(7, z7...)
				}
				e := shapeEngine(t, cfg, c.m, edges, target)
				// The floor rows: `floor` evidence proteins and Z7, so they
				// pass MinOcc 2 at every floor.
				prof := simindex.Profile{7: shapeRow(7, 2, 3, 4)}
				for _, x := range []int32{1, 2, 6}[:floor] {
					prof[x] = shapeRow(x, 2, 3, 4)
				}
				q := shapeQuery(e, 9, prof)
				if _, lastRow, f0, f1 := floorCensus(e.NewScorer(), q, 0); lastRow != 4 || f0 != c.wantF0 || f1 != c.f1 {
					t.Fatalf("%s %s floor %d: last floor row %d, floor columns [%d, %d), want 4, [%d, %d)",
						name, c.name, floor, lastRow, f0, f1, c.wantF0, c.f1)
				}
				if got := shapeCheck(t, e, q); got <= 0 {
					t.Errorf("%s %s floor %d: score %v", name, c.name, floor, got)
				}
			}
		}
	}
}

// kernelSink keeps the compiler from discarding the benchmarked calls.
var kernelSink float64

// kernelPair is one (query, target) call of BenchmarkKernel.
type kernelPair struct {
	q      *Query
	target int
}

// BenchmarkKernel times the same (query, target) pairs through
// Scorer.Score and through the frozen seed kernel above, both inside
// each iteration (benchKernelRatio): cmd/benchpipe gates the
// engine/golden ratios, which — unlike an absolute ns/op — mean the same
// thing on every machine. Every fixture uses the committed benchmark's
// proteome (bench/: 200 proteins, seed 1). proteome is shaped like its
// score_proteome workload: 200-residue queries cycling the five
// difficulty classes, every protein as target. design holds the calls
// its design workloads make (designPairs), and all-proteins its
// candidates against every protein (allProteinPairs).
func BenchmarkKernel(b *testing.B) {
	params := yeastgen.DefaultParams()
	params.NumProteins = 200
	pr, err := yeastgen.Generate(params)
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(pr.Proteins, pr.Graph, Config{}, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	queries := make([]*Query, 2*int(yeastgen.NumDifficulties))
	for i := range queries {
		d := yeastgen.Difficulty(i % int(yeastgen.NumDifficulties))
		queries[i] = e.NewQuery(pr.DifficultySequence(rng, d, 200), 1)
	}
	var pairs []kernelPair
	for target := range pr.Proteins {
		for _, q := range queries {
			pairs = append(pairs, kernelPair{q, target})
		}
	}
	benchKernelRatio(b, "proteome", e, pairs)
	design := designPairs(b, pr, e)
	benchKernelRatio(b, "design", e, design)
	benchKernelRatio(b, "all-proteins", e, allProteinPairs(design, len(pr.Proteins)))
}

// allProteinPairs returns the candidates of the design pairs, each
// against every one of the proteome's n proteins, target fastest: the
// calls a design run makes when every other protein is a non-target, as
// in the paper. Candidates are dropped from the end until the stride of
// benchKernelRatio's samples is coprime to n (two of the 1 759).
func allProteinPairs(design []kernelPair, n int) []kernelPair {
	var cands []*Query
	for i, p := range design {
		if i == 0 || p.q != design[i-1].q {
			cands = append(cands, p.q)
		}
	}
	for len(cands) > 1 {
		g, r := len(cands)*n/kernelBlock, n
		for r != 0 {
			g, r = r, g%r
		}
		if g == 1 {
			break
		}
		cands = cands[:len(cands)-1]
	}
	pairs := make([]kernelPair, 0, len(cands)*n)
	for _, q := range cands {
		for t := 0; t < n; t++ {
			pairs = append(pairs, kernelPair{q, t})
		}
	}
	return pairs
}

// goldenPairs converts pairs to the frozen seed kernel's queries, each
// query once.
func goldenPairs(e *Engine, pairs []kernelPair) [][2]*goldenQuery {
	golden := map[*Query]*goldenQuery{}
	gq := func(q *Query) *goldenQuery {
		if g, ok := golden[q]; ok {
			return g
		}
		g := goldenFromQuery(e, q)
		golden[q] = g
		return g
	}
	gp := make([][2]*goldenQuery, len(pairs))
	for i, p := range pairs {
		gp[i] = [2]*goldenQuery{gq(p.q), gq(e.DBQuery(p.target))}
	}
	return gp
}

// kernelBlock is about how many pairs one iteration of benchKernelRatio
// scores through each kernel. designPairs lists each candidate against
// its 9 targets, target fastest, so the stride len(pairs)/kernelBlock
// must be coprime to 9: a stride sharing the factor 3 samples 3 of the 9
// targets in each iteration and reads about half the ratio, and
// benchKernelRatio fails on one. Larger
// blocks at coprime strides (256, 320, 700) did not narrow the spread of
// run medians.
const kernelBlock = 64

// benchKernelRatio runs name over pairs. Iteration i scores the i-th
// of len(pairs)/kernelBlock strided samples of the fixture (cycling),
// kernelBlock pairs evenly spaced through it, through Scorer.Score and
// through the frozen seed kernel, in alternating order, each on a
// freshly collected heap, and the benchmark reports the median of the
// per-iteration time ratios (engine/golden). Timing both inside one
// iteration puts host drift on both sides of the ratio, where two
// sub-benchmarks would run one block of repetitions after the other.
func benchKernelRatio(b *testing.B, name string, e *Engine, pairs []kernelPair) {
	gp := goldenPairs(e, pairs)
	stride := len(pairs) / kernelBlock
	perCand := 1
	for perCand < len(pairs) && pairs[perCand].q == pairs[0].q {
		perCand++
	}
	g := stride
	for r := perCand; r != 0; {
		g, r = r, g%r
	}
	if g != 1 {
		b.Fatalf("stride %d shares the factor %d with the %d targets per candidate: an iteration would sample %d of them",
			stride, g, perCand, perCand/g)
	}
	b.Run(name, func(b *testing.B) {
		scorer := e.NewScorer()
		// Neither kernel pays for the other's garbage: the seed kernel
		// allocates per call.
		engine := func(from int) time.Duration {
			runtime.GC()
			start := time.Now()
			for k := from; k < len(pairs); k += stride {
				p := pairs[k]
				kernelSink = scorer.Score(p.q, p.target)
			}
			return time.Since(start)
		}
		golden := func(from int) time.Duration {
			runtime.GC()
			start := time.Now()
			for k := from; k < len(gp); k += stride {
				p := gp[k]
				kernelSink = goldenScore(e, p[0], p[1])
			}
			return time.Since(start)
		}
		ratios := make([]float64, b.N)
		for i := range ratios {
			from := i % stride
			var en, gd time.Duration
			if i%2 == 0 {
				en = engine(from)
				gd = golden(from)
			} else {
				gd = golden(from)
				en = engine(from)
			}
			ratios[i] = float64(en) / float64(gd)
		}
		slices.Sort(ratios)
		b.ReportMetric(ratios[len(ratios)/2], "engine/golden")
	})
}

// designPairs returns the calls a design run makes: every distinct
// candidate a seeded GA evaluates in 10 generations (population 200 ×
// 130 residues, warm-started from natural fragments as a design run is),
// each against the first wet-lab target and 8 members of its component
// — the committed benchmark's D200 problem — target fastest. It logs how
// many calls land mass and what share of those reach no evidence floor.
func designPairs(b *testing.B, pr *yeastgen.Proteome, e *Engine) []kernelPair {
	target := pr.WetlabTargetIDs()[0]
	targets := []int{target}
	for _, id := range pr.ComponentMembers(pr.Component(target)) {
		if id != target && len(targets) < 9 {
			targets = append(targets, id)
		}
	}
	scorer := e.NewScorer()
	var pairs []kernelPair
	seen := map[string]bool{}
	fitness := ga.EvaluatorFunc(func(seqs []seq.Sequence) []float64 {
		fits := make([]float64, len(seqs))
		for i, s := range seqs {
			q := e.NewQuery(s, 1)
			if !seen[s.Residues()] {
				seen[s.Residues()] = true
				for _, t := range targets {
					pairs = append(pairs, kernelPair{q, t})
				}
			}
			maxNT := 0.0
			for _, t := range targets[1:] {
				maxNT = max(maxNT, scorer.Score(q, t))
			}
			fits[i] = (1 - maxNT) * scorer.Score(q, target)
		}
		return fits
	})
	params := ga.DefaultParams()
	params.PopulationSize, params.SeqLen = 200, 130
	run, err := ga.New(params, fitness)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(params.Seed))
	pop := make([]seq.Sequence, params.PopulationSize)
	for i := range pop {
		var body []byte
		for len(body) < params.SeqLen {
			p := pr.Proteins[rng.Intn(len(pr.Proteins))]
			n := min(params.SeqLen/3+rng.Intn(params.SeqLen/3+1), p.Len())
			start := rng.Intn(p.Len() - n + 1)
			body = append(body, p.Residues()[start:start+n]...)
		}
		pop[i] = seq.MustNew(fmt.Sprintf("chimera%04d", i), string(body[:params.SeqLen]))
	}
	if err := run.SetPopulation(pop); err != nil {
		b.Fatal(err)
	}
	for g := 0; g < 10; g++ {
		run.Step()
	}
	mass, noFloor := 0, 0
	census := e.NewScorer()
	for _, p := range pairs {
		if landed, lastRow, _, _ := floorCensus(census, p.q, p.target); landed {
			mass++
			if lastRow < 0 {
				noFloor++
			}
		}
	}
	b.Logf("design pairs: %d candidates x %d targets; mass lands in %d calls, %.1f %% of them with no cell at the evidence floor",
		len(pairs)/len(targets), len(targets), mass, 100*float64(noFloor)/float64(mass))
	return pairs
}
