package pipe

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/seq"
)

// naturalChimera is a candidate made of natural fragments, as a warm
// start breeds them: most of its windows are in the window table.
func naturalChimera(rng *rand.Rand, proteins []seq.Sequence) seq.Sequence {
	var res string
	for len(res) < 100 {
		p := proteins[rng.Intn(len(proteins))].Residues()
		off := rng.Intn(len(p) - 40)
		res += p[off : off+40]
	}
	return seq.MustNew("chimera", res)
}

// The batch path must reproduce the sequential NewQuery+Score scores
// bit-identically across seeds and thread counts, with the window table
// answering a natural chimera's windows. NewQuery searches every window
// (Index().SequenceSimilarity), so any table-induced deviation in the
// batch would surface as a float mismatch.
func TestScoreBatchMatchesSequential(t *testing.T) {
	pr, eng := testSetup(t)
	ids := []int{0, 3, 7, 11, 19}
	for _, seed := range []int64{1, 42} {
		rng := rand.New(rand.NewSource(seed))
		seqs := make([]seq.Sequence, 0, 10)
		for i := 0; i < 8; i++ {
			seqs = append(seqs, seq.Random(rng, "cand", 70+rng.Intn(120), seq.YeastComposition()))
		}
		seqs = append(seqs, seqs[0]) // exact duplicate
		sampler := seq.NewSampler(seq.YeastComposition())
		seqs = append(seqs, seq.Mutate(rng, seqs[1], 0.02, sampler)) // near-duplicate
		seqs = append(seqs, naturalChimera(rng, pr.Proteins))

		want := make([][]float64, len(seqs))
		scorer := eng.AcquireScorer()
		for i, s := range seqs {
			q := eng.NewQuery(s, 1)
			want[i] = make([]float64, len(ids))
			for j, id := range ids {
				want[i][j] = scorer.Score(q, id)
			}
		}
		eng.ReleaseScorer(scorer)

		for _, threads := range []int{1, 2, 8} {
			before := eng.WindowCacheStats()
			got := eng.ScoreBatch(seqs, ids, threads)
			for i := range seqs {
				for j := range ids {
					if got[i][j] != want[i][j] {
						t.Fatalf("seed %d threads %d: ScoreBatch[%d][%d] = %v, sequential %v",
							seed, threads, i, j, got[i][j], want[i][j])
					}
				}
			}
			if after := eng.WindowCacheStats(); after.Hits <= before.Hits {
				t.Fatalf("a batch with a natural chimera gained no table hits: %+v -> %+v", before, after)
			}
		}
	}
}

func TestNewQueryDeltaMatchesSequential(t *testing.T) {
	_, eng := testSetup(t)
	rng := rand.New(rand.NewSource(9))
	sampler := seq.NewSampler(seq.YeastComposition())
	ids := []int{2, 5, 13}
	for trial := 0; trial < 5; trial++ {
		parentSeq := seq.Random(rng, "parent", 130, seq.YeastComposition())
		parent := eng.NewQuery(parentSeq, 2)
		scorer := eng.AcquireScorer()
		for _, rate := range []float64{0.0, 0.01, 0.05, 0.5} {
			child := seq.Mutate(rng, parentSeq, rate, sampler)
			dq := eng.NewQueryDelta(parent, child, 2)
			sq := eng.NewQuery(child, 1)
			for _, id := range ids {
				if got, want := scorer.Score(dq, id), scorer.Score(sq, id); got != want {
					t.Fatalf("delta score (rate %v, id %d) = %v, sequential %v", rate, id, got, want)
				}
			}
		}
		// Nil parent degrades to a full build through the window table.
		child := seq.Mutate(rng, parentSeq, 0.1, sampler)
		dq := eng.NewQueryDelta(nil, child, 2)
		sq := eng.NewQuery(child, 1)
		if got, want := scorer.Score(dq, 5), scorer.Score(sq, 5); got != want {
			t.Fatalf("nil-parent delta = %v, want %v", got, want)
		}
		eng.ReleaseScorer(scorer)
	}
	q, reused := eng.DeltaStats()
	if q == 0 || reused == 0 {
		t.Fatalf("delta counters never advanced: queries=%d reused=%d", q, reused)
	}
}

// A crossover child of two preprocessed parents is built from their
// profiles: at most the w-1 windows straddling the cut are searched, and
// the window table is not consulted.
func TestNewQueryDeltaCrossLiftsTail(t *testing.T) {
	_, eng := testSetup(t)
	rng := rand.New(rand.NewSource(10))
	w := eng.Index().Config().Window
	scorer := eng.AcquireScorer()
	defer eng.ReleaseScorer(scorer)
	for trial := 0; trial < 5; trial++ {
		a := seq.Random(rng, "a", 130, seq.YeastComposition())
		b := seq.Random(rng, "b", 130, seq.YeastComposition())
		qa, qb := eng.NewQuery(a, 1), eng.NewQuery(b, 1)
		ab, ba := seq.Crossover(rng, a, b, 10)
		for _, tc := range []struct {
			parent, second *Query
			child          seq.Sequence
		}{{qa, qb, ab}, {qb, qa, ba}} {
			wc := eng.WindowCacheStats()
			deltas, lifted := eng.DeltaStats()
			dq := eng.NewQueryDeltaCross(tc.parent, tc.second, tc.child, 2, nil)
			if after := eng.WindowCacheStats(); after != wc {
				t.Fatalf("delta build moved the window table: %+v -> %+v", wc, after)
			}
			deltasAfter, liftedAfter := eng.DeltaStats()
			nw := int64(tc.child.NumWindows(w))
			if searched := nw - (liftedAfter - lifted); deltasAfter != deltas+1 || searched > int64(w-1) {
				t.Fatalf("crossover child searched %d of %d windows, want at most %d", searched, nw, w-1)
			}
			sq := eng.NewQuery(tc.child, 1)
			for _, id := range []int{2, 5, 13} {
				if got, want := scorer.Score(dq, id), scorer.Score(sq, id); got != want {
					t.Fatalf("two-parent delta score (id %d) = %v, sequential %v", id, got, want)
				}
			}
		}
	}
}

// The window table's keys are the natural proteome's windows, sealed:
// New (whose table starts empty) and a table built full from the
// proteins' per-protein searches key the same table, every natural window
// resolves to what a fresh search of it returns, and neither scoring
// random queries nor a generation's batch and delta builds adds an
// entry; they only fill lists. (core's TestDesignRunShape checks the
// same after a whole design run.)
func TestWindowTableSealed(t *testing.T) {
	pr, built := testSetup(t)
	full := tableEngine(t, pr.Proteins, pr.Graph, Config{}, perProteinProfiles(built.Index()))
	ix := built.Index()
	w := ix.Config().Window
	entries := built.WindowCacheStats().Entries
	distinct := map[string]bool{}
	for _, p := range pr.Proteins {
		res := p.Residues()
		for i := 0; i+w <= len(res); i++ {
			key := res[i : i+w]
			distinct[key] = true
			want, ok := built.winTable.Get(key)
			if !ok {
				t.Fatalf("natural window %q of %s is not in the table", key, p.Name())
			}
			fresh := ix.SequenceSimilarity(seq.MustNew("w", key), 1)
			if len(want) != len(fresh.IDs) {
				t.Fatalf("window %q: table has %d proteins, a fresh search %d", key, len(want), len(fresh.IDs))
			}
			for r, ws := range want {
				if _, score := fresh.Row(r); ws.Protein != fresh.IDs[r] || ws.Score != score[0] {
					t.Fatalf("window %q: table %v, fresh search %+v", key, want, fresh)
				}
			}
			if got, ok := full.winTable.Get(key); !ok || !reflect.DeepEqual(got, want) {
				t.Fatalf("full table: window %q = %v, %v; New's table %v", key, got, ok, want)
			}
		}
	}
	for name, eng := range map[string]*Engine{"New": built, "full table": full} {
		if got := eng.WindowCacheStats().Entries; got != int64(len(distinct)) {
			t.Fatalf("%s: %d entries for %d distinct natural windows", name, got, len(distinct))
		}
	}

	rng := rand.New(rand.NewSource(5))
	ids := make([]int, len(pr.Proteins))
	for i := range ids {
		ids[i] = i
	}
	for i := 0; i < 3; i++ {
		built.ScoreMany(seq.Random(rng, "q", 120, seq.YeastComposition()), ids, 2)
	}
	gen := make([]seq.Sequence, 12)
	for i := range gen {
		gen[i] = naturalChimera(rng, pr.Proteins)
	}
	before := built.WindowCacheStats()
	qs := built.NewQueryBatch(gen, 2)
	a, b := seq.Crossover(rng, gen[0], gen[1], 10)
	built.NewQueryDeltaCross(qs[0], qs[1], a, 2, nil)
	built.NewQueryDelta(qs[1], b, 2)
	st := built.WindowCacheStats()
	if st.Entries != entries || st.Hits <= before.Hits {
		t.Fatalf("after scoring and a generation: %+v, want %d entries and new hits over %+v", st, entries, before)
	}
}

// First touches race: goroutines run overlapping NewQueryBatch,
// NewQueryDeltaCross and DBQuery calls on one fresh engine, so the same
// natural windows are searched and filled by several callers at once.
// Every profile equals a fresh search of its sequence, every database
// entry its protein's per-protein search, before and after. Run under -race
// in CI's batch suite.
func TestWindowTableFirstTouchesRace(t *testing.T) {
	pr, _ := testSetup(t)
	eng, err := New(pr.Proteins, pr.Graph, Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.WindowCacheStats(); st.Filled != 0 || st.Hits != 0 || st.Entries == 0 {
		t.Fatalf("fresh engine's table: %+v, want entries and nothing filled", st)
	}
	ix := eng.Index()
	want := perProteinProfiles(ix)
	check := func(what string, s seq.Sequence, q *Query) {
		if got, fresh := q.Profile(), ix.SequenceSimilarity(s, 1); !reflect.DeepEqual(got, fresh) {
			t.Errorf("%s: profile %+v, fresh search %+v", what, got, fresh)
		}
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w % 2))) // pairs of workers touch the same windows
			sampler := seq.NewSampler(seq.YeastComposition())
			for round := 0; round < 3; round++ {
				gen := make([]seq.Sequence, 6)
				for i := range gen {
					gen[i] = naturalChimera(rng, pr.Proteins)
				}
				gen[5] = seq.Random(rng, "cand", 90, seq.YeastComposition())
				qs := eng.NewQueryBatch(gen, 1+w%2)
				for i, q := range qs {
					check("batch", gen[i], q)
				}
				a, b := seq.Crossover(rng, gen[0], gen[1], 10)
				check("crossover", a, eng.NewQueryDeltaCross(qs[0], qs[1], a, 1, nil))
				m := seq.Mutate(rng, gen[2], 0.05, sampler)
				check("mutant", m, eng.NewQueryDelta(qs[2], m, 1))
				check("cold", b, eng.NewQueryDeltaCross(nil, nil, b, 2, nil))
				for k := 0; k < 3; k++ {
					id := (w + 3*round + k) % len(pr.Proteins)
					if got := eng.DBQuery(id).Profile(); !reflect.DeepEqual(got, want[id]) {
						t.Errorf("entry %d: %+v, per-protein search %+v", id, got, want[id])
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if st := eng.WindowCacheStats(); st.Filled == 0 || st.Hits == 0 {
		t.Fatalf("after the races: %+v, want filled windows and hits", st)
	}
	for id := range pr.Proteins {
		if got := eng.DBQuery(id).Profile(); !reflect.DeepEqual(got, want[id]) {
			t.Fatalf("entry %d: %+v, per-protein search %+v", id, got, want[id])
		}
	}
}
