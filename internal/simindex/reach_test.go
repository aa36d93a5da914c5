package simindex

import (
	"slices"
	"testing"

	"repro/internal/seq"
)

// cutProfile is fp without the rows of proteins outside reach, in the
// assembler's form (empty slices, not nil).
func cutProfile(fp FlatProfile, g *ReachGate) FlatProfile {
	out := FlatProfile{IDs: []int32{}, Offsets: []int32{0}, Pos: []int32{}, Score: []int32{}}
	for r, id := range fp.IDs {
		if !g.has(id) {
			continue
		}
		pos, score := fp.Row(r)
		out.IDs = append(out.IDs, id)
		out.Pos = append(out.Pos, pos...)
		out.Score = append(out.Score, score...)
		out.Offsets = append(out.Offsets, int32(len(out.Pos)))
	}
	return out
}

// FuzzDeltaReachMatchesCut checks a gated delta build against a fresh
// search of the child: with fewer than the floor of reach proteins in
// the fresh profile the child is dead and the gated profile is the
// fresh one cut to the reach set; otherwise it is the fresh one. The
// child is FuzzDeltaMatchesFresh's: a crossover of two fixed parents at
// cut data[0] with the substitutions data[5:] on top. data[1] picks the
// parents (bit 2: the second parent is the true one, else none), which
// are partial (bit 0 the first, bit 1 the second) and whether the call
// gets a full window table (bit 3), which a live child reads a partial
// parent's windows from without counting the reads; data[2] the
// floor (1-3) and the thread count (1-3), and data[3:5] the reach set:
// protein p is in it when bit p%16 of the little-endian word is set.
func FuzzDeltaReachMatchesCut(f *testing.F) {
	// The first parent alone, cut 40: it lends windows 0-20, which hit
	// protein 8 and not 10, and 10 is hit in the windows searched. With
	// reach {8, 10} and floor 2 the child is live only after the gated
	// search (at 1, 2 and 3 threads, the last with the parent partial);
	// with reach {8, 11} it is dead; with reach {0, 1} it is live on
	// what it lifted from a partial parent.
	f.Add([]byte{40, 0, 1, 0x00, 0x05})
	f.Add([]byte{40, 0, 4, 0x00, 0x05})
	f.Add([]byte{40, 1, 7, 0x00, 0x05})
	f.Add([]byte{40, 0, 1, 0x00, 0x09})
	f.Add([]byte{40, 5, 4, 0x00, 0x09})
	f.Add([]byte{40, 1, 1, 0x03, 0x00})
	f.Add([]byte{90, 7, 2, 0x33, 0x01, 1, 0, 0, 9})
	// A child equal to its second parent: no window left to search, dead
	// (an empty reach set) and live (every protein in it), the parent
	// full and partial.
	f.Add([]byte{0, 4, 0, 0x00, 0x00})
	f.Add([]byte{0, 6, 0, 0x00, 0x00})
	f.Add([]byte{0, 4, 1, 0xff, 0x3f})
	f.Add([]byte{0, 6, 4, 0xff, 0x3f})
	// A live child of a partial parent with a table (cut 40, the parent
	// partial, reach {8, 10}), and live on what it lifted from one.
	f.Add([]byte{40, 9, 1, 0x00, 0x05})
	f.Add([]byte{40, 9, 1, 0x03, 0x00})
	f.Add([]byte{90, 15, 2, 0x33, 0x01, 1, 0, 0, 9})
	ix, _ := fuzzSetup(f)
	table := naturalTable(ix)
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, base := fuzzSetup(t)
		w := ix.cfg.Window
		if len(data) < 5 {
			return
		}
		n := len(base) / 2
		a, b := base[:n], base[n:2*n]
		cut := int(data[0]) % (n + 1)
		res := []byte(a[:cut] + b[cut:])
		for i, d := range data[5:] {
			if i >= n {
				break
			}
			res[i] = seq.Letter((seq.Index(res[i]) + int(d)) % seq.NumAminoAcids)
		}
		child := seq.MustNew("child", string(res))
		gate := ix.NewReachGate(make([]uint64, (ix.NumProteins()+63)/64), 1+int(data[2])%3)
		for p := 0; p < ix.NumProteins(); p++ {
			if (int(data[3])|int(data[4])<<8)>>(p%16)&1 == 1 {
				gate.Reach[p/64] |= 1 << (p % 64)
			}
		}
		threads := 1 + int(data[2]/3)%3
		parent := func(residues string, partial bool) DeltaParent {
			s := seq.MustNew("parent", residues)
			prof := ix.SequenceSimilarity(s, 1)
			if partial {
				prof = cutProfile(prof, gate)
			}
			return DeltaParent{Seq: s, Prof: prof, Partial: partial}
		}
		parents := []DeltaParent{parent(a, data[1]&1 != 0)}
		if data[1]&4 != 0 {
			parents = append(parents, parent(b, data[1]&2 != 0))
		}

		fresh := ix.SequenceSimilarity(child, 1)
		inReach := 0
		for _, id := range fresh.IDs {
			if gate.has(id) {
				inReach++
			}
		}
		var cache *WindowCache
		if data[1]&8 != 0 {
			cache = table
		}
		before := table.Stats()
		got, lifted, partial := ix.SequenceSimilarityDelta(parents, child, threads, gate, cache)
		if after := table.Stats(); after != before {
			t.Fatalf("the delta build moved the table's counters: %+v, then %+v", before, after)
		}
		if dead := inReach < gate.Floor; partial != dead {
			t.Fatalf("partial %v with %d reach proteins in the fresh profile, floor %d", partial, inReach, gate.Floor)
		}
		if partial {
			eqProfile(t, "dead child", got, cutProfile(fresh, gate))
		} else {
			eqProfile(t, "live child", got, fresh)
		}
		if nw := child.NumWindows(w); lifted < 0 || lifted > nw {
			t.Fatalf("lifted %d of %d windows", lifted, nw)
		}
		// An ungated call searches again what a partial parent lends and
		// returns the fresh profile.
		if got, _, partial := ix.SequenceSimilarityDelta(parents, child, threads, nil, nil); partial {
			t.Fatal("an ungated call returned a partial profile")
		} else {
			eqProfile(t, "ungated", got, fresh)
		}
	})
}

// FuzzBatchReachMatchesCut checks a gated batch build against fresh
// searches: a query is dead exactly when its fresh profile holds fewer
// than the floor of reach proteins, and its gated profile is the fresh
// one cut to the reach set; a live query's is the fresh one. An
// ungated build of the same batch on a second table returns the fresh
// profiles, and leaves that table with the same lists and counters as
// the gated build leaves its own. The batch mixes natural content and
// not: a query of the fixed base, a chimera of a natural protein's
// fragment and the base, a copy of it, the chimera with substitutions
// data[5:], a whole natural protein and a query shorter than a window.
// data[0] picks the floor (1-3) and the thread count (1-3), data[1:3]
// the reach set (protein p is in it when bit p%16 of the little-endian
// word is set), data[3] the natural protein and whether both tables are
// warmed first with a build of it, data[4] the fragment's length.
func FuzzBatchReachMatchesCut(f *testing.F) {
	f.Add([]byte{0, 0x05, 0x00, 0, 40})
	f.Add([]byte{1, 0xff, 0x3f, 1, 60, 3, 0, 7})
	f.Add([]byte{4, 0x00, 0x00, 2, 20})
	f.Add([]byte{5, 0x09, 0x00, 0x83, 90, 1, 1, 1, 1})
	f.Add([]byte{8, 0x21, 0x01, 0x45, 30, 0, 0, 0, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, base := fuzzSetup(t)
		w := ix.cfg.Window
		if len(data) < 5 {
			return
		}
		gate := ix.NewReachGate(make([]uint64, (ix.NumProteins()+63)/64), 1+int(data[0])%3)
		for p := 0; p < ix.NumProteins(); p++ {
			if (int(data[1])|int(data[2])<<8)>>(p%16)&1 == 1 {
				gate.Reach[p/64] |= 1 << (p % 64)
			}
		}
		threads := 1 + int(data[0]/3)%3
		natural := ix.Protein(int(data[3]&0x7f) % ix.NumProteins()).Residues()
		frag := natural[:min(len(natural), 1+int(data[4])%120)]
		n := len(base) / 3
		chimera := frag + base[:n]
		mutant := []byte(chimera)
		for i, d := range data[5:] {
			if i >= len(mutant) {
				break
			}
			mutant[i] = seq.Letter((seq.Index(mutant[i]) + int(d)) % seq.NumAminoAcids)
		}
		var qs []seq.Sequence
		for _, res := range []string{base[n : 2*n], chimera, chimera, string(mutant), natural, base[:w-1]} {
			qs = append(qs, seq.MustNew("q", res))
		}
		gated, ungated := ix.NewWindowCache(nil), ix.NewWindowCache(nil)
		if data[3]&0x80 != 0 {
			warm := []seq.Sequence{seq.MustNew("warm", natural)}
			ix.SequenceSimilarityBatch(warm, 1, gated, nil)
			ix.SequenceSimilarityBatch(warm, 1, ungated, nil)
		}

		got, dead := ix.SequenceSimilarityBatch(qs, threads, gated, gate)
		full, none := ix.SequenceSimilarityBatch(qs, threads, ungated, nil)
		if len(dead) != len(qs) || none != nil {
			t.Fatalf("dead %v gated, %v ungated, for %d queries", dead, none, len(qs))
		}
		for i, q := range qs {
			fresh := ix.SequenceSimilarity(q, 1)
			eqProfile(t, "ungated", full[i], fresh)
			inReach := 0
			for _, id := range fresh.IDs {
				if gate.has(id) {
					inReach++
				}
			}
			if dead[i] != (inReach < gate.Floor) {
				t.Fatalf("query %d: dead %v with %d reach proteins in the fresh profile, floor %d", i, dead[i], inReach, gate.Floor)
			}
			if dead[i] {
				if q.NumWindows(w) > 0 {
					eqProfile(t, "dead query", got[i], cutProfile(fresh, gate))
				} else {
					eqProfile(t, "dead short query", got[i], fresh)
				}
			} else {
				eqProfile(t, "live query", got[i], fresh)
			}
		}
		if g, u := gated.Stats(), ungated.Stats(); g != u {
			t.Fatalf("table stats %+v gated, %+v ungated", g, u)
		}
		for g := 0; g < ix.totalWins; g++ {
			a, okA := windowAt(gated, g)
			b, okB := windowAt(ungated, g)
			if okA != okB || !slices.Equal(a, b) {
				t.Fatalf("window %d: %v (filled %v) gated, %v (filled %v) ungated", g, a, okA, b, okB)
			}
		}
	})
}
