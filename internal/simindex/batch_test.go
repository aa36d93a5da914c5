package simindex

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/seq"
)

func randomSeqs(t *testing.T, rng *rand.Rand, n, minLen, maxLen int) []seq.Sequence {
	t.Helper()
	letters := []byte("ACDEFGHIKLMNPQRSTVWY")
	out := make([]seq.Sequence, n)
	for i := range out {
		l := minLen + rng.Intn(maxLen-minLen+1)
		b := make([]byte, l)
		for j := range b {
			b[j] = letters[rng.Intn(len(letters))]
		}
		s, err := seq.New("s", string(b))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}

func buildTestIndex(t *testing.T, seed int64) (*Index, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	proteome := randomSeqs(t, rng, 24, 40, 120)
	ix, err := Build(proteome, Config{Threshold: 20})
	if err != nil {
		t.Fatal(err)
	}
	return ix, rng
}

func eqProfile(t *testing.T, label string, got, want FlatProfile) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: profile mismatch\n got: %+v\nwant: %+v", label, got, want)
	}
}

// The batched and cached paths must be bit-identical to the sequential
// per-query build, across seeds, thread counts, and cache states.
func TestBatchMatchesSequential(t *testing.T) {
	for _, seed := range []int64{1, 2, 7} {
		ix, rng := buildTestIndex(t, seed)
		queries := randomSeqs(t, rng, 12, 30, 90)
		// Duplicate a query exactly and add a point mutant: the batch
		// dedup must not conflate distinct content.
		sampler := seq.NewSampler(seq.UniformComposition())
		queries = append(queries, queries[0])
		queries = append(queries, seq.Mutate(rng, queries[1], 1.0/float64(queries[1].Len()), sampler))
		// One window content first seen mid-run in one query and at a run
		// edge in the next (and, on the reversed batch below, the other
		// way round): results must not depend on how runs were cut.
		w := ix.cfg.Window
		shared := queries[2].Residues()[9 : 9+w]
		queries = append(queries, seq.MustNew("edge", shared+queries[3].Residues()))
		queries = append(queries, seq.MustNew("mid", queries[4].Residues()[:11]+shared+queries[4].Residues()[11:]))
		// A chimera of natural fragments: the window table holds most of it.
		queries = append(queries, seq.MustNew("chimera", ix.Protein(0).Residues()[5:40]+ix.Protein(1).Residues()[:30]))
		table := naturalTable(ix)

		want := make([]FlatProfile, len(queries))
		for i, q := range queries {
			want[i] = ix.SequenceSimilarity(q, 1)
		}
		for _, threads := range []int{1, 3, 8} {
			got, _ := ix.SequenceSimilarityBatch(queries, threads, nil, nil)
			for i := range queries {
				eqProfile(t, "batch nocache", got[i], want[i])
			}
			reversed := slices.Clone(queries)
			slices.Reverse(reversed)
			got, _ = ix.SequenceSimilarityBatch(reversed, threads, nil, nil)
			for i := range reversed {
				eqProfile(t, "batch reversed", got[i], want[len(want)-1-i])
			}
			before := table.Stats()
			got, _ = ix.SequenceSimilarityBatch(queries, threads, table, nil)
			for i := range queries {
				eqProfile(t, "batch with table", got[i], want[i])
			}
			if st := table.Stats(); st.Hits == before.Hits {
				t.Fatalf("a batch with a natural chimera recorded no table hits: %+v", st)
			}
			for i, q := range queries {
				eqProfile(t, "single with table", ix.SequenceSimilarityCached(q, threads, table), want[i])
			}
		}
	}
}

func TestBatchEdgeCases(t *testing.T) {
	ix, rng := buildTestIndex(t, 3)
	if got, dead := ix.SequenceSimilarityBatch(nil, 4, nil, nil); len(got) != 0 || dead != nil {
		t.Fatalf("empty batch: got %d profiles", len(got))
	}
	short, err := seq.New("short", "ACDEFG") // shorter than window
	if err != nil {
		t.Fatal(err)
	}
	queries := append(randomSeqs(t, rng, 3, 30, 60), short)
	got, _ := ix.SequenceSimilarityBatch(queries, 2, naturalTable(ix), nil)
	for i, q := range queries {
		eqProfile(t, "with short", got[i], ix.SequenceSimilarity(q, 1))
	}
}

// The delta path must be exact for point mutants, crossover children,
// and even a deliberately wrong parent (which only costs searches).
func TestDeltaMatchesFull(t *testing.T) {
	ix, rng := buildTestIndex(t, 5)
	w := ix.cfg.Window
	parents := randomSeqs(t, rng, 6, 70, 70)
	sampler := seq.NewSampler(seq.UniformComposition())
	one := func(s seq.Sequence) []DeltaParent {
		return []DeltaParent{{Seq: s, Prof: ix.SequenceSimilarity(s, 1)}}
	}
	for _, p := range parents {
		for trial := 0; trial < 4; trial++ {
			child := seq.Mutate(rng, p, 0.05, sampler)
			got, lifted, _ := ix.SequenceSimilarityDelta(one(p), child, 2, nil, nil)
			eqProfile(t, "delta mutant", got, ix.SequenceSimilarity(child, 1))
			if child.Residues() == p.Residues() && lifted != child.NumWindows(w) {
				t.Fatalf("identical child lifted %d windows, want all", lifted)
			}
		}
		// Wrong parent: exactness must survive.
		child := seq.Mutate(rng, p, 0.02, sampler)
		got, _, _ := ix.SequenceSimilarityDelta(one(parents[0]), child, 1, nil, nil)
		eqProfile(t, "delta wrong parent", got, ix.SequenceSimilarity(child, 1))
	}
	// One edit stales exactly the w windows over it.
	for _, threads := range []int{1, 2} {
		p := parents[2]
		const edit = 40
		b := []byte(p.Residues())
		b[edit] = seq.Letter((seq.Index(b[edit]) + 1) % seq.NumAminoAcids)
		child := seq.MustNew("child", string(b))
		got, lifted, _ := ix.SequenceSimilarityDelta(one(p), child, threads, nil, nil)
		eqProfile(t, "delta point mutant", got, ix.SequenceSimilarity(child, 1))
		if nw := child.NumWindows(w); lifted != nw-w {
			t.Fatalf("point mutant lifted %d of %d windows, want all but %d", lifted, nw, w)
		}
	}
	// Crossover children: against either parent alone the other side of
	// the cut is searched; against both, in either order, only the
	// windows straddling the cut can be.
	a, b := parents[0], parents[1]
	ab, ba := seq.Crossover(rng, a, b, 5)
	both := append(one(a), one(b)...)
	for _, child := range []seq.Sequence{ab, ba} {
		want := ix.SequenceSimilarity(child, 1)
		nw := child.NumWindows(w)
		for _, single := range [][]DeltaParent{both[:1], both[1:]} {
			got, lifted, _ := ix.SequenceSimilarityDelta(single, child, 2, nil, nil)
			eqProfile(t, "delta crossover, one parent", got, want)
			if lifted >= nw-(w-1) {
				t.Fatalf("one parent supplied %d of %d windows of a crossover child", lifted, nw)
			}
		}
		for _, pair := range [][]DeltaParent{both, {both[1], both[0]}} {
			got, lifted, _ := ix.SequenceSimilarityDelta(pair, child, 2, nil, nil)
			eqProfile(t, "delta crossover, both parents", got, want)
			if lifted < nw-(w-1) {
				t.Fatalf("crossover child of two known parents searched %d windows, want at most %d", nw-lifted, w-1)
			}
		}
	}
}

// FuzzDeltaMatchesFresh builds a child from two fixed parents — a
// crossover at a fuzzed cut with fuzzed substitutions on top — and
// checks that the profile lifted from the parents equals a fresh search
// of the child, whatever is passed as the second parent. data[0] picks
// the cut, data[1] the second parent (see the switch), and the rest
// shift the child's residues as in FuzzRunSearch.
func FuzzDeltaMatchesFresh(f *testing.F) {
	f.Add([]byte{40, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, base := fuzzSetup(t)
		w := ix.cfg.Window
		if len(data) < 2 {
			return
		}
		n := len(base) / 2
		a, b := base[:n], base[n:2*n]
		cut := int(data[0]) % (n + 1)
		res := []byte(a[:cut] + b[cut:])
		edits := 0
		for i, d := range data[2:] {
			if i >= n {
				break
			}
			if int(d)%seq.NumAminoAcids != 0 {
				edits++
			}
			res[i] = seq.Letter((seq.Index(res[i]) + int(d)) % seq.NumAminoAcids)
		}
		child := seq.MustNew("child", string(res))
		parent := func(residues string) DeltaParent {
			s := seq.MustNew("parent", residues)
			return DeltaParent{Seq: s, Prof: ix.SequenceSimilarity(s, 1)}
		}
		parents := []DeltaParent{parent(a)}
		switch data[1] % 5 {
		case 0: // the true second parent
			parents = append(parents, parent(b))
		case 1: // none
		case 2: // the first parent again
			parents = append(parents, parents[0])
		case 3: // unrelated: the second parent read backwards
			rev := []byte(b)
			slices.Reverse(rev)
			parents = append(parents, parent(string(rev)))
		case 4: // another length
			parents = append(parents, parent(b[:n-w]))
		}
		got, lifted, _ := ix.SequenceSimilarityDelta(parents, child, 1, nil, nil)
		eqProfile(t, "delta", got, ix.SequenceSimilarity(child, 1))
		nw := child.NumWindows(w)
		if lifted < 0 || lifted > nw {
			t.Fatalf("lifted %d of %d windows", lifted, nw)
		}
		if data[1]%5 == 0 && nw-lifted > w-1+w*edits {
			t.Fatalf("searched %d windows for a cut and %d edits, want at most %d", nw-lifted, edits, w-1+w*edits)
		}
	})
}

// naturalTable is the window table of ix's own proteome, filled up
// front from per-protein searches: what a table filled on first touch
// holds once every window is reached.
func naturalTable(ix *Index) *WindowCache {
	return ix.NewWindowCache(perProteinProfiles(ix))
}

// The window table is read without locks: concurrent Gets of every
// natural window and of windows it does not hold return what a fresh
// search of the window returns, and the counters add up. Run under
// -race in CI's batch suite.
func TestWindowTableConcurrentGets(t *testing.T) {
	ix, rng := buildTestIndex(t, 11)
	w := ix.cfg.Window
	table := naturalTable(ix)
	var keys []string
	for p := 0; p < ix.NumProteins(); p++ {
		res := ix.Protein(p).Residues()
		for i := 0; i+w <= len(res); i++ {
			keys = append(keys, res[i:i+w])
		}
	}
	natural := len(keys)
	for _, q := range randomSeqs(t, rng, 40, w, w) {
		keys = append(keys, q.Residues())
	}
	// want[k] is a fresh search of window k, as the per-window list the
	// table stores (nil when nothing is similar); held says whether the
	// table holds it.
	want := make([][]WinScore, len(keys))
	held := make([]bool, len(keys))
	distinct := map[string]bool{}
	for k, key := range keys {
		prof := ix.SequenceSimilarity(seq.MustNew("w", key), 1)
		for r, id := range prof.IDs {
			_, score := prof.Row(r)
			want[k] = append(want[k], WinScore{Protein: id, Score: score[0]})
		}
		if k < natural {
			distinct[key] = true
		}
		held[k] = distinct[key]
	}
	if st := table.Stats(); st.Entries != int64(len(distinct)) || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("fresh table: %+v, want %d entries and no lookups", st, len(distinct))
	}
	const readers = 4
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range keys {
				k := (j + g*len(keys)/readers) % len(keys)
				got, ok := table.Get(keys[k])
				if ok != held[k] || (ok && !reflect.DeepEqual(got, want[k])) || (!ok && got != nil) {
					t.Errorf("Get(%q) = %v, %v; fresh search %v, held %v", keys[k], got, ok, want[k], held[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	var hits int64
	for _, h := range held {
		if h {
			hits++
		}
	}
	if st := table.Stats(); st.Hits != readers*hits || st.Misses != readers*(int64(len(keys))-hits) || st.Entries != int64(len(distinct)) {
		t.Fatalf("after %d readers: %+v, want %d hits and %d misses each", readers, st, hits, int64(len(keys))-hits)
	}
	var none *WindowCache
	if _, ok := none.Get(keys[0]); ok || none.Stats() != (WindowCacheStats{}) {
		t.Fatal("a nil table hit or counted")
	}
}
