package simindex

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/seq"
)

// windowList is what the table holds for one window: the per-window
// list a fresh search of the w residues alone returns (nil when nothing
// is similar).
func windowList(ix *Index, key string) []WinScore {
	prof := ix.SequenceSimilarity(seq.MustNew("w", key), 1)
	var out []WinScore
	for r, id := range prof.IDs {
		_, score := prof.Row(r)
		out = append(out, WinScore{Protein: id, Score: score[0]})
	}
	return out
}

// proteinOfWindow is the protein whose windows include window g
// (winBase numbering).
func proteinOfWindow(ix *Index, g int) int {
	return sort.Search(ix.NumProteins(), func(p int) bool { return int(ix.winBase[p+1]) > g })
}

// windowAt is table c's list of window g (winBase numbering) and whether
// it is filled.
func windowAt(c *WindowCache, g int) ([]WinScore, bool) {
	p := proteinOfWindow(c.ix, g)
	return c.window(c.ix.protOff[p] + int32(g) - c.ix.winBase[p])
}

// FuzzWindowTableFirstTouch drives a table that starts empty through a
// fuzzed sequence of reads: Get, batch and cached builds over natural
// windows and over natural windows with one residue changed, and
// Profile calls. Each op is three bytes: the kind and whether to mutate,
// then which window (or protein). Every answer equals a fresh search
// whatever was filled before it; a lookup of natural content counts as
// a hit, filled or not, and anything else as a miss; and at the end
// every filled list is its window's list in the per-protein searches.
func FuzzWindowTableFirstTouch(f *testing.F) {
	for i, seed := range fuzzProteomeSeeds {
		f.Add(seed, []byte{0, 3, 1, 2, 3, 1, 4, 3, 1, 5, 0, 9, 6, 1, 1, 7, 2, 8, 0, 3, 1, byte(i), 9, 9})
	}
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		prots, cfg, ok := fuzzProteome(data)
		if !ok {
			return
		}
		ix, err := Build(prots, cfg)
		if err != nil {
			t.Fatal(err)
		}
		w := ix.cfg.Window
		var wins []string
		for _, p := range prots {
			res := p.Residues()
			for i := 0; i+w <= len(res); i++ {
				wins = append(wins, res[i:i+w])
			}
		}
		if len(wins) == 0 {
			return
		}
		table := ix.NewWindowCache(nil)
		var hits, misses int64
		count := func(key string) {
			if table.find(key) >= 0 {
				hits++
			} else {
				misses++
			}
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			a, b := int(ops[1]), int(ops[2])
			key := wins[(a<<8|b)%len(wins)]
			if ops[0]&1 != 0 {
				r := []byte(key)
				r[b%w] = seq.Letter((seq.Index(r[b%w]) + 1 + a%(seq.NumAminoAcids-1)) % seq.NumAminoAcids)
				key = string(r)
			}
			other := wins[(b<<8|a)%len(wins)]
			switch ops[0] >> 1 % 4 {
			case 0:
				got, ok := table.Get(key)
				natural := table.find(key) >= 0
				if want := windowList(ix, key); ok != natural || (ok && !slices.Equal(got, want)) || (!ok && got != nil) {
					t.Fatalf("Get(%q) = %v, %v; fresh search %v, natural %v", key, got, ok, want, natural)
				}
				count(key)
			case 1:
				// A generation: the window, a two-window chimera and a copy.
				qs := []seq.Sequence{seq.MustNew("a", key), seq.MustNew("b", key+other), seq.MustNew("c", key)}
				got, _ := ix.SequenceSimilarityBatch(qs, 1+b%3, table, nil)
				seen := map[string]bool{}
				for i, q := range qs {
					if want := ix.SequenceSimilarity(q, 1); !reflect.DeepEqual(got[i], want) {
						t.Fatalf("batch query %d %q: %+v, fresh search %+v", i, q.Residues(), got[i], want)
					}
					res := q.Residues()
					for j := 0; j+w <= len(res); j++ {
						if !seen[res[j:j+w]] {
							seen[res[j:j+w]] = true
							count(res[j : j+w])
						}
					}
				}
			case 2:
				q := seq.MustNew("q", other+key)
				if got, want := ix.SequenceSimilarityCached(q, 1+a%2, table), ix.SequenceSimilarity(q, 1); !reflect.DeepEqual(got, want) {
					t.Fatalf("cached build of %q: %+v, fresh search %+v", q.Residues(), got, want)
				}
				for j := 0; j+w <= len(q.Residues()); j++ {
					count(q.Residues()[j : j+w])
				}
			case 3:
				p := a % len(prots)
				if got, want := table.Profile(p), ix.SequenceSimilarity(ix.Protein(p), 1); !reflect.DeepEqual(got, want) {
					t.Fatalf("Profile(%d): %+v, fresh search %+v", p, got, want)
				}
			}
		}
		distinct := map[string]bool{}
		for _, key := range wins {
			distinct[key] = true
		}
		if st := table.Stats(); st.Hits != hits || st.Misses != misses || st.Entries != int64(len(distinct)) {
			t.Fatalf("stats %+v, want %d hits, %d misses, %d entries", st, hits, misses, len(distinct))
		}
		ref := naturalTable(ix)
		filled := int64(0)
		for g := 0; g < ix.totalWins; g++ {
			if got, ok := windowAt(table, g); ok {
				filled++
				if want, _ := windowAt(ref, g); !slices.Equal(got, want) {
					t.Fatalf("window %d filled with %v, per-protein searches %v", g, got, want)
				}
			}
		}
		if st := table.Stats(); st.Filled != filled {
			t.Fatalf("Filled %d, %d windows hold a list", st.Filled, filled)
		}
	})
}
