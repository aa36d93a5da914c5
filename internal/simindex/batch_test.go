package simindex

import (
	"math/rand"
	"reflect"
	"slices"
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

		want := make([]FlatProfile, len(queries))
		for i, q := range queries {
			want[i] = ix.SequenceSimilarity(q, 1)
		}
		for _, threads := range []int{1, 3, 8} {
			got := ix.SequenceSimilarityBatch(queries, threads, nil)
			for i := range queries {
				eqProfile(t, "batch nocache", got[i], want[i])
			}
			cache := NewWindowCache(1 << 14)
			got = ix.SequenceSimilarityBatch(queries, threads, cache) // cold
			for i := range queries {
				eqProfile(t, "batch cold", got[i], want[i])
			}
			reversed := slices.Clone(queries)
			slices.Reverse(reversed)
			got = ix.SequenceSimilarityBatch(reversed, threads, nil)
			for i := range reversed {
				eqProfile(t, "batch reversed", got[i], want[len(want)-1-i])
			}
			got = ix.SequenceSimilarityBatch(queries, threads, cache) // warm
			for i := range queries {
				eqProfile(t, "batch warm", got[i], want[i])
			}
			st := cache.Stats()
			if st.Hits == 0 {
				t.Fatalf("warm batch recorded no cache hits: %+v", st)
			}
			for i, q := range queries {
				eqProfile(t, "cached single warm", ix.SequenceSimilarityCached(q, threads, cache), want[i])
			}
			// A tiny cache must evict without corrupting results.
			small := NewWindowCache(8)
			got = ix.SequenceSimilarityBatch(queries, threads, small)
			for i := range queries {
				eqProfile(t, "batch tiny cache", got[i], want[i])
			}
			if small.Stats().Evicted == 0 {
				t.Fatal("tiny cache never evicted")
			}
		}
	}
}

func TestBatchEdgeCases(t *testing.T) {
	ix, rng := buildTestIndex(t, 3)
	if got := ix.SequenceSimilarityBatch(nil, 4, nil); len(got) != 0 {
		t.Fatalf("empty batch: got %d profiles", len(got))
	}
	short, err := seq.New("short", "ACDEFG") // shorter than window
	if err != nil {
		t.Fatal(err)
	}
	queries := append(randomSeqs(t, rng, 3, 30, 60), short)
	got := ix.SequenceSimilarityBatch(queries, 2, NewWindowCache(1024))
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
			got, lifted := ix.SequenceSimilarityDelta(one(p), child, 2)
			eqProfile(t, "delta mutant", got, ix.SequenceSimilarity(child, 1))
			if child.Residues() == p.Residues() && lifted != child.NumWindows(w) {
				t.Fatalf("identical child lifted %d windows, want all", lifted)
			}
		}
		// Wrong parent: exactness must survive.
		child := seq.Mutate(rng, p, 0.02, sampler)
		got, _ := ix.SequenceSimilarityDelta(one(parents[0]), child, 1)
		eqProfile(t, "delta wrong parent", got, ix.SequenceSimilarity(child, 1))
	}
	// One edit stales exactly the w windows over it.
	for _, threads := range []int{1, 2} {
		p := parents[2]
		const edit = 40
		b := []byte(p.Residues())
		b[edit] = seq.Letter((seq.Index(b[edit]) + 1) % seq.NumAminoAcids)
		child := seq.MustNew("child", string(b))
		got, lifted := ix.SequenceSimilarityDelta(one(p), child, threads)
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
			got, lifted := ix.SequenceSimilarityDelta(single, child, 2)
			eqProfile(t, "delta crossover, one parent", got, want)
			if lifted >= nw-(w-1) {
				t.Fatalf("one parent supplied %d of %d windows of a crossover child", lifted, nw)
			}
		}
		for _, pair := range [][]DeltaParent{both, {both[1], both[0]}} {
			got, lifted := ix.SequenceSimilarityDelta(pair, child, 2)
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
		got, lifted := ix.SequenceSimilarityDelta(parents, child, 1)
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

func TestWindowCacheLRU(t *testing.T) {
	c := NewWindowCache(16) // one entry per shard
	if NewWindowCache(0) != nil || NewWindowCache(-3) != nil {
		t.Fatal("entries<=0 must return nil")
	}
	var nilCache *WindowCache
	if _, ok := nilCache.Get("AAAA"); ok {
		t.Fatal("nil cache hit")
	}
	nilCache.Put("AAAA", nil) // must not panic
	if st := nilCache.Stats(); st != (WindowCacheStats{}) {
		t.Fatalf("nil cache stats: %+v", st)
	}

	val := []WinScore{{Protein: 1, Score: 42}}
	c.Put("WINDOWAAAA", val)
	c.Put("WINDOWAAAA", val) // duplicate: refresh only
	got, ok := c.Get("WINDOWAAAA")
	if !ok || !reflect.DeepEqual(got, val) {
		t.Fatalf("get after put: %v %v", got, ok)
	}
	// Cached empty result is a hit, distinguished from a miss.
	c.Put("EMPTYWINDOW", nil)
	if v, ok := c.Get("EMPTYWINDOW"); !ok || v != nil {
		t.Fatalf("cached empty: %v %v", v, ok)
	}
	if _, ok := c.Get("NEVERSEEN"); ok {
		t.Fatal("phantom hit")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 2 {
		t.Fatalf("stats: %+v", st)
	}

	// Force evictions by overfilling one shard's worth of keys.
	keys := make([]string, 0, 64)
	letters := "ACDEFGHIKLMNPQRSTVWY"
	for i := 0; i < 64; i++ {
		k := ""
		for j := 0; j < 6; j++ {
			k += string(letters[(i*7+j*3)%len(letters)])
		}
		k += string(rune('0' + i%10))
		keys = append(keys, k)
		c.Put(k, val)
	}
	st = c.Stats()
	if st.Evicted == 0 {
		t.Fatalf("no evictions after overfill: %+v", st)
	}
	if st.Entries > 16 {
		t.Fatalf("cache exceeded bound: %+v", st)
	}
}

// TestWindowCacheSlabModel drives the slab cache against a straightforward
// map+recency-list model through a long random workload of Gets and Puts
// (including duplicate keys and hash-colliding short keys), checking every
// lookup result and the resident-entry bound. This pins the open-addressing
// back-shift deletion and slot recycling that the LRU eviction path relies
// on. The cache is seeded and sealed, and the bound then grows in steps
// (observeBatch) from the seed floor to the ceiling, so the workload also
// crosses every table rehash with live entries on both sides of it.
func TestWindowCacheSlabModel(t *testing.T) {
	const ceilPerShard = 24
	c := NewWindowCache(ceilPerShard * wcShards)
	rng := rand.New(rand.NewSource(42))
	// growAt[step] is the batch size announced at that step; the last one
	// asks for more than the ceiling allows.
	growAt := map[int]int{0: 16, 5000: 40, 10000: 64, 15000: 1000}
	cur := 0 // the model's traffic-following per-shard bound

	type modelEnt struct {
		val []WinScore
		seq int // recency stamp
	}
	// Per-shard models mirroring the cache's sharding.
	models := make([]map[string]*modelEnt, wcShards)
	for i := range models {
		models[i] = map[string]*modelEnt{}
	}
	tick := 0

	keys := make([]string, 0, 512)
	letters := "ACDEFGHIKLMNPQRSTVWY"
	for i := 0; i < 512; i++ {
		n := 1 + rng.Intn(8)
		b := make([]byte, n)
		for j := range b {
			b[j] = letters[rng.Intn(len(letters))]
		}
		keys = append(keys, string(b))
	}

	// Seed a few entries per shard, then seal: they are the floor.
	for _, key := range keys[:40] {
		tick++
		c.Put(key, nil)
		models[wcHash(key)%wcShards][key] = &modelEnt{seq: tick}
	}
	c.Seal()
	floor := make([]int, wcShards)
	seeded := 0
	for sh, m := range models {
		floor[sh] = len(m)
		seeded += len(m)
	}
	if st := c.Stats(); st.Entries != int64(seeded) || st.Bound < st.Entries {
		t.Fatalf("after Seal: %+v, seeded %d", st, seeded)
	}
	limit := func(sh int) int { return max(floor[sh], cur, 1) }

	for step := 0; step < 20000; step++ {
		if n, ok := growAt[step]; ok {
			c.observeBatch(n)
			cur = min(ceilPerShard, (windowBoundFactor*n+wcShards-1)/wcShards)
			var want int64
			for sh := range models {
				want += int64(limit(sh))
			}
			if st := c.Stats(); st.Bound != want || st.Bound > ceilPerShard*wcShards {
				t.Fatalf("step %d: bound %d after a batch of %d, model says %d", step, st.Bound, n, want)
			}
		}
		key := keys[rng.Intn(len(keys))]
		sh := int(wcHash(key) % wcShards)
		m := models[sh]
		perShard := limit(sh)
		tick++
		if rng.Intn(2) == 0 { // Get
			got, ok := c.Get(key)
			ent, want := m[key]
			if ok != want {
				t.Fatalf("step %d: Get(%q) present=%v, model says %v", step, key, ok, want)
			}
			if ok {
				ent.seq = tick
				if len(got) != len(ent.val) {
					t.Fatalf("step %d: Get(%q) len %d, want %d", step, key, len(got), len(ent.val))
				}
				for i := range got {
					if got[i] != ent.val[i] {
						t.Fatalf("step %d: Get(%q)[%d] = %+v, want %+v", step, key, i, got[i], ent.val[i])
					}
				}
			}
		} else { // Put
			var val []WinScore
			for i := rng.Intn(3); i > 0; i-- {
				val = append(val, WinScore{Protein: int32(rng.Intn(100)), Score: int32(rng.Intn(50))})
			}
			c.Put(key, val)
			if ent, ok := m[key]; ok {
				ent.seq = tick // refresh only; value unchanged
			} else {
				if len(m) >= perShard { // model LRU eviction
					var lruKey string
					lruSeq := tick + 1
					for k, e := range m {
						if e.seq < lruSeq {
							lruSeq, lruKey = e.seq, k
						}
					}
					delete(m, lruKey)
				}
				m[key] = &modelEnt{val: val, seq: tick}
			}
		}
	}
	st := c.Stats()
	var want int64
	for _, m := range models {
		want += int64(len(m))
	}
	if st.Entries != want {
		t.Fatalf("resident entries %d, model has %d", st.Entries, want)
	}
	if st.Evicted == 0 {
		t.Fatal("workload produced no evictions")
	}
	// Every surviving model entry must still be retrievable with its value.
	for _, m := range models {
		for k, ent := range m {
			got, ok := c.Get(k)
			if !ok {
				t.Fatalf("model entry %q missing from cache", k)
			}
			if len(got) != len(ent.val) {
				t.Fatalf("entry %q: len %d, want %d", k, len(got), len(ent.val))
			}
		}
	}
}
