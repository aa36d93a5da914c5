package pipe

import (
	"math/rand"
	"testing"

	"repro/internal/seq"
)

// The batch path must reproduce the sequential NewQuery+Score scores
// bit-identically across seeds, thread counts, cache states (cold,
// warm, disabled), and the point-mutation delta path. The reference
// engine has its window cache disabled, so any cache-induced deviation
// in the batched engine would surface as a float mismatch.
func TestScoreBatchMatchesSequential(t *testing.T) {
	pr, cached := testSetup(t)
	uncached, err := New(pr.Proteins, pr.Graph, Config{WindowCacheEntries: -1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := uncached.WindowCacheStats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("disabled cache reports stats: %+v", st)
	}
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

		want := make([][]float64, len(seqs))
		scorer := uncached.AcquireScorer()
		for i, s := range seqs {
			q := uncached.NewQuery(s, 1)
			want[i] = make([]float64, len(ids))
			for j, id := range ids {
				want[i][j] = scorer.Score(q, id)
			}
		}
		uncached.ReleaseScorer(scorer)

		for _, threads := range []int{1, 2, 8} {
			for pass, eng := range []*Engine{cached, uncached} {
				got := eng.ScoreBatch(seqs, ids, threads)
				for i := range seqs {
					for j := range ids {
						if got[i][j] != want[i][j] {
							t.Fatalf("seed %d threads %d pass %d: ScoreBatch[%d][%d] = %v, sequential %v",
								seed, threads, pass, i, j, got[i][j], want[i][j])
						}
					}
				}
			}
		}
		// Second cached round is a warm-cache re-run of identical content.
		before := cached.WindowCacheStats()
		got := cached.ScoreBatch(seqs, ids, 4)
		for i := range seqs {
			for j := range ids {
				if got[i][j] != want[i][j] {
					t.Fatalf("warm rerun mismatch at [%d][%d]", i, j)
				}
			}
		}
		after := cached.WindowCacheStats()
		if after.Hits <= before.Hits {
			t.Fatalf("warm rerun gained no cache hits: %+v -> %+v", before, after)
		}
	}
}

func TestNewQueryDeltaMatchesSequential(t *testing.T) {
	pr, cached := testSetup(t)
	uncached, err := New(pr.Proteins, pr.Graph, Config{WindowCacheEntries: -1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	sampler := seq.NewSampler(seq.YeastComposition())
	ids := []int{2, 5, 13}
	for trial := 0; trial < 5; trial++ {
		parentSeq := seq.Random(rng, "parent", 130, seq.YeastComposition())
		parent := cached.NewQuery(parentSeq, 2)
		for _, rate := range []float64{0.0, 0.01, 0.05, 0.5} {
			child := seq.Mutate(rng, parentSeq, rate, sampler)
			dq := cached.NewQueryDelta(parent, child, 2)
			sq := uncached.NewQuery(child, 1)
			scorer := cached.AcquireScorer()
			ref := uncached.AcquireScorer()
			for _, id := range ids {
				if got, want := scorer.Score(dq, id), ref.Score(sq, id); got != want {
					t.Fatalf("delta score (rate %v, id %d) = %v, sequential %v", rate, id, got, want)
				}
			}
			cached.ReleaseScorer(scorer)
			uncached.ReleaseScorer(ref)
		}
		// Nil parent degrades to a full cached build.
		child := seq.Mutate(rng, parentSeq, 0.1, sampler)
		dq := cached.NewQueryDelta(nil, child, 2)
		sq := uncached.NewQuery(child, 1)
		s := cached.AcquireScorer()
		r := uncached.AcquireScorer()
		if got, want := s.Score(dq, 5), r.Score(sq, 5); got != want {
			t.Fatalf("nil-parent delta = %v, want %v", got, want)
		}
		cached.ReleaseScorer(s)
		uncached.ReleaseScorer(r)
	}
	q, reused := cached.DeltaStats()
	if q == 0 || reused == 0 {
		t.Fatalf("delta counters never advanced: queries=%d reused=%d", q, reused)
	}
}

// A crossover child of two preprocessed parents is built from their
// profiles: at most the w-1 windows straddling the cut are searched, and
// the window cache is neither read nor written.
func TestNewQueryDeltaCrossLiftsTail(t *testing.T) {
	pr, cached := testSetup(t)
	uncached, err := New(pr.Proteins, pr.Graph, Config{WindowCacheEntries: -1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	w := cached.Index().Config().Window
	scorer, ref := cached.AcquireScorer(), uncached.AcquireScorer()
	defer cached.ReleaseScorer(scorer)
	defer uncached.ReleaseScorer(ref)
	for trial := 0; trial < 5; trial++ {
		a := seq.Random(rng, "a", 130, seq.YeastComposition())
		b := seq.Random(rng, "b", 130, seq.YeastComposition())
		qa, qb := cached.NewQuery(a, 1), cached.NewQuery(b, 1)
		ab, ba := seq.Crossover(rng, a, b, 10)
		for _, tc := range []struct {
			parent, second *Query
			child          seq.Sequence
		}{{qa, qb, ab}, {qb, qa, ba}} {
			wc := cached.WindowCacheStats()
			deltas, lifted := cached.DeltaStats()
			dq := cached.NewQueryDeltaCross(tc.parent, tc.second, tc.child, 2)
			if after := cached.WindowCacheStats(); after != wc {
				t.Fatalf("delta build moved the window cache: %+v -> %+v", wc, after)
			}
			deltasAfter, liftedAfter := cached.DeltaStats()
			nw := int64(tc.child.NumWindows(w))
			if searched := nw - (liftedAfter - lifted); deltasAfter != deltas+1 || searched > int64(w-1) {
				t.Fatalf("crossover child searched %d of %d windows, want at most %d", searched, nw, w-1)
			}
			sq := uncached.NewQuery(tc.child, 1)
			for _, id := range []int{2, 5, 13} {
				if got, want := scorer.Score(dq, id), ref.Score(sq, id); got != want {
					t.Fatalf("two-parent delta score (id %d) = %v, sequential %v", id, got, want)
				}
			}
		}
	}
}

// The window-cache bound follows the traffic between the natural-window
// seed and the configured ceiling: a fresh engine holds exactly its
// seed, a batch with more windows than the bound grows it, and neither
// engine construction path lets it drop below the seed or pass the
// ceiling.
func TestWindowCacheBoundFollowsTraffic(t *testing.T) {
	pr, _ := testSetup(t)
	rng := rand.New(rand.NewSource(5))
	batch := func(n int) []seq.Sequence {
		seqs := make([]seq.Sequence, n)
		for i := range seqs {
			seqs[i] = seq.Random(rng, "cand", 120, seq.YeastComposition())
		}
		return seqs
	}
	built, err := New(pr.Proteins, pr.Graph, Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := NewFromProfiles(pr.Proteins, pr.Graph, Config{}, built.DBProfiles())
	if err != nil {
		t.Fatal(err)
	}
	for name, eng := range map[string]*Engine{"built": built, "loaded": loaded} {
		seed := eng.WindowCacheStats()
		if seed.Entries == 0 || seed.Bound != seed.Entries {
			t.Fatalf("%s: fresh engine bound %d with %d seeded entries", name, seed.Bound, seed.Entries)
		}
		eng.NewQueryBatch(batch(2), 1) // far fewer windows than the seed
		if st := eng.WindowCacheStats(); st.Bound != seed.Bound || st.Entries != seed.Entries {
			t.Fatalf("%s: small batch moved the bound: %+v, seed %+v", name, st, seed)
		}
		big := batch(int(seed.Entries)/100 + 1) // ~101 windows each: more than the seed holds
		eng.NewQueryBatch(big, 2)
		st := eng.WindowCacheStats()
		if st.Bound <= seed.Bound || st.Bound > DefaultWindowCacheEntries {
			t.Fatalf("%s: bound %d after a batch larger than the seed bound %d", name, st.Bound, seed.Bound)
		}
		if st.Entries <= seed.Entries || st.Entries > st.Bound {
			t.Fatalf("%s: %d entries resident under bound %d (seed %d)", name, st.Entries, st.Bound, seed.Entries)
		}
	}

	// A ceiling below the seed caps everything, seed included.
	const ceiling = 1 << 10
	small, err := New(pr.Proteins, pr.Graph, Config{WindowCacheEntries: ceiling}, 0)
	if err != nil {
		t.Fatal(err)
	}
	small.NewQueryBatch(batch(40), 2)
	if st := small.WindowCacheStats(); st.Bound > ceiling || st.Entries > ceiling {
		t.Fatalf("ceiling %d exceeded: %+v", ceiling, st)
	}
}
