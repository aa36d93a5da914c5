package simindex

import (
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
// parents (bit 2: the second parent is the true one, else none) and
// which are partial (bit 0 the first, bit 1 the second), data[2] the
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
		got, lifted, partial := ix.SequenceSimilarityDelta(parents, child, threads, gate)
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
		if got, _, partial := ix.SequenceSimilarityDelta(parents, child, threads, nil); partial {
			t.Fatal("an ungated call returned a partial profile")
		} else {
			eqProfile(t, "ungated", got, fresh)
		}
	})
}
