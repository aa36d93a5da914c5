package simindex

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/seq"
	"repro/internal/submat"
)

// perProteinProfiles is the loop ProteomeProfiles replaces: every
// protein searched against the whole proteome on its own.
func perProteinProfiles(ix *Index) []FlatProfile {
	out := make([]FlatProfile, ix.NumProteins())
	for p := range out {
		out[p] = ix.SequenceSimilarity(ix.Protein(p), 1)
	}
	return out
}

// checkProteomeProfiles asserts ProteomeProfiles equals the per-protein
// loop for each thread count and returns the number of profile entries.
func checkProteomeProfiles(t testing.TB, ix *Index, threads ...int) int {
	t.Helper()
	want := perProteinProfiles(ix)
	for _, n := range threads {
		got := ix.ProteomeProfiles(n)
		for p := range want {
			if !reflect.DeepEqual(got[p], want[p]) {
				t.Fatalf("%d threads, protein %d (%d residues):\n got %+v\nwant %+v", n, p, ix.Protein(p).Len(), got[p], want[p])
			}
		}
	}
	entries := 0
	for _, prof := range want {
		entries += prof.NumEntries()
	}
	return entries
}

// mapSeedTable is the seed table as a map, filled position by position:
// the form Build used to make first and copy into the dense table.
func mapSeedTable(ix *Index) map[uint64][]WinRef {
	m := map[uint64][]WinRef{}
	k := ix.cfg.SeedLen
	for p := 0; p < ix.NumProteins(); p++ {
		res := ix.Protein(p).Residues()
		for pos := 0; pos+k <= len(res); pos++ {
			if key, ok := ix.cfg.Reduced.ReduceKmer(res, pos, k); ok {
				m[key] = append(m[key], WinRef{Protein: int32(p), Pos: int32(pos)})
			}
		}
	}
	return m
}

// checkSeedTable asserts every bucket of ix holds what the map holds for
// its key, and nothing else is indexed.
func checkSeedTable(t testing.TB, ix *Index) {
	t.Helper()
	total := 0
	for key, refs := range mapSeedTable(ix) {
		if got := ix.refs(key); !reflect.DeepEqual(got, refs) {
			t.Fatalf("key %d: table %v, map %v", key, got, refs)
		}
		total += len(refs)
	}
	if total != ix.posCount || (ix.denseOff != nil && len(ix.denseRefs) != total) {
		t.Fatalf("table holds %d positions (%d dense), the map %d", ix.posCount, len(ix.denseRefs), total)
	}
}

// buildLegacy is Build the way it was before the seed table was counted
// into place: a map filled first, then copied into the dense table when
// the key space allows it.
func buildLegacy(t testing.TB, prots []seq.Sequence, cfg Config) *Index {
	t.Helper()
	ix, err := Build(prots, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := mapSeedTable(ix)
	ix.buckets, ix.denseOff, ix.denseRefs = m, nil, nil
	if keys := denseKeySpace(ix.cfg); keys > 0 {
		ix.denseOff = make([]int32, keys+1)
		ix.denseRefs = make([]WinRef, ix.posCount)
		for key, refs := range m {
			ix.denseOff[key+1] = int32(len(refs))
		}
		for key := 1; key <= keys; key++ {
			ix.denseOff[key] += ix.denseOff[key-1]
		}
		for key, refs := range m {
			copy(ix.denseRefs[ix.denseOff[key]:], refs)
		}
		ix.buckets = nil
	}
	return ix
}

// proteomeTestProteome is runTestProteome plus exact duplicates, one of
// them of a protein shorter than the window.
func proteomeTestProteome(t testing.TB, rng *rand.Rand) []seq.Sequence {
	prots := runTestProteome(t, rng)
	for _, src := range []int{1, 6, 3} {
		prots = append(prots, prots[src].WithName(pname(len(prots))))
	}
	return prots
}

var proteomeConfigs = []struct {
	name string
	cfg  Config
}{
	{"default", Config{}},
	{"lowThreshold", Config{Threshold: 18}},
	{"dayhoff6", Config{Reduced: seq.Dayhoff6(), Threshold: 30}},
	{"identity20", Config{Reduced: seq.Identity20(), Threshold: 30}}, // map table
	{"blosum62", Config{Matrix: submat.BLOSUM62(), Threshold: 30}},
	{"w12k3", Config{Window: 12, SeedLen: 3, Threshold: 22}},
}

func TestProteomeProfilesMatchPerProtein(t *testing.T) {
	for _, tc := range proteomeConfigs {
		t.Run(tc.name, func(t *testing.T) {
			ix, err := Build(proteomeTestProteome(t, rand.New(rand.NewSource(35))), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if checkProteomeProfiles(t, ix, 1, 2, 3, 8) == 0 {
				t.Fatal("no profile entries: the comparison is vacuous")
			}
		})
	}
}

func TestProteomeProfilesEdgeCases(t *testing.T) {
	ix, err := Build(nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.ProteomeProfiles(2); len(got) != 0 {
		t.Fatalf("empty proteome gave %d profiles", len(got))
	}
	// Nothing but proteins shorter than the window, and one protein alone.
	for _, prots := range [][]seq.Sequence{
		{seq.MustNew("a", "MKTAY"), seq.MustNew("b", ""), seq.MustNew("c", "MKTAYIAKQR")},
		{seq.Random(rand.New(rand.NewSource(38)), "solo", 180, seq.YeastComposition())},
	} {
		ix, err := Build(prots, Config{})
		if err != nil {
			t.Fatal(err)
		}
		checkProteomeProfiles(t, ix, 1, 3)
	}
}

// The counted seed table is the one the map-then-copy build made, field
// for field, on both table kinds.
func TestBuildMatchesLegacyTable(t *testing.T) {
	prots := proteomeTestProteome(t, rand.New(rand.NewSource(36)))
	for _, tc := range proteomeConfigs {
		t.Run(tc.name, func(t *testing.T) {
			ix, err := Build(prots, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkSeedTable(t, ix)
			if legacy := buildLegacy(t, prots, tc.cfg); !reflect.DeepEqual(ix, legacy) {
				t.Fatal("counted build differs from the map-then-copy build")
			}
		})
	}
}

// fuzzProteomeBase is the template fuzzed proteomes are cut from, so that
// proteins share fragments and similar windows exist.
var fuzzProteomeBase = seq.Random(rand.New(rand.NewSource(37)), "base", 160, seq.YeastComposition()).Residues()

// fuzzProteome decodes a small proteome and index config from data.
// Byte 0 picks the matrix (PAM120 or BLOSUM62), the seeding alphabet
// (Murphy10, dense table, or Identity20 at k = 5, whose 3.2M keys exceed
// maxDenseKeys so the map table runs) and the window; byte 1 the
// threshold; byte 2 the protein count (2-8). Each protein then takes
// three bytes: a start in the template, a length (up to 47, so some are
// shorter than the window) and a byte that either makes it an exact
// duplicate of an earlier protein or sets its residue shift and whether
// it is written in lower case. A non-standard residue cannot reach an
// index — seq.New refuses every byte but the 20 letters in either case —
// so lower case, which seq.New folds, is the only other spelling there
// is. Bytes left over mutate residues, protein by protein.
func fuzzProteome(data []byte) ([]seq.Sequence, Config, bool) {
	if len(data) < 3 {
		return nil, Config{}, false
	}
	cfg := Config{Matrix: submat.PAM120(), Reduced: seq.Murphy10()}
	if data[0]&1 != 0 {
		cfg.Matrix = submat.BLOSUM62()
	}
	cfg.Window = 6 + int(data[0]>>2)%15
	cfg.SeedLen = 2 + int(data[0]>>2)%4
	if data[0]&2 != 0 {
		cfg.Reduced, cfg.SeedLen = seq.Identity20(), 5
	}
	cfg.Threshold = 5 + int(data[1])%40
	n := 2 + int(data[2])%7
	data = data[3:]
	var prots []seq.Sequence
	for i := 0; i < n; i++ {
		var b [3]byte
		copy(b[:], data)
		data = data[min(3, len(data)):]
		if i > 0 && b[2]%5 == 0 {
			prots = append(prots, prots[int(b[2]/5)%i].WithName(pname(i)))
			continue
		}
		res := []byte{}
		for j := 0; j < int(b[1])%48; j++ {
			c := fuzzProteomeBase[(int(b[0])+j)%len(fuzzProteomeBase)]
			c = seq.Letter((seq.Index(c) + int(b[2]>>3)) % seq.NumAminoAcids)
			if b[2]&4 != 0 {
				c += 'a' - 'A'
			}
			res = append(res, c)
		}
		prots = append(prots, seq.MustNew(pname(i), string(res)))
	}
	for i, p := range prots {
		if len(data) == 0 {
			break
		}
		res := []byte(p.Residues())
		for j := range res {
			if len(data) == 0 {
				break
			}
			res[j] = seq.Letter((seq.Index(res[j]) + int(data[0])) % seq.NumAminoAcids)
			data = data[1:]
		}
		prots[i] = seq.MustNew(p.Name(), string(res))
	}
	return prots, cfg, true
}

// fuzzProteomeSeeds are the hand-written seeds of the fuzzProteome
// targets.
var fuzzProteomeSeeds = [][]byte{
	{0, 30, 5, 0, 40, 1, 10, 40, 1, 0, 47, 5},
	{3, 20, 6, 0, 47, 1, 5, 30, 9, 20, 10, 1, 0, 0, 5, 40, 47, 17},
	{2 | 40<<2, 10, 3, 7, 47, 1, 7, 47, 10, 8, 12, 0},
	{1 | 12<<2, 25, 7, 0, 47, 1, 12, 47, 6, 30, 47, 5, 0, 3, 1, 60, 47, 5, 90, 47, 2, 3, 0, 0, 1},
}

func FuzzProteomeProfiles(f *testing.F) {
	for _, seed := range fuzzProteomeSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prots, cfg, ok := fuzzProteome(data)
		if !ok {
			return
		}
		ix, err := Build(prots, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkSeedTable(t, ix)
		checkProteomeProfiles(t, ix, 1, 2, 3)
	})
}

// FuzzProteomeTable checks the proteome table on small proteomes: at
// every window it holds what the transposition of the per-protein
// profiles holds, its content keys are that table's, and each protein's
// profile assembled from it is a fresh search of the protein.
func FuzzProteomeTable(f *testing.F) {
	for _, seed := range fuzzProteomeSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prots, cfg, ok := fuzzProteome(data)
		if !ok {
			return
		}
		ix, err := Build(prots, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := ix.NewWindowCache(ix.ProteomeProfiles(1))
		for _, n := range []int{1, 2, 3} {
			got := ix.ProteomeTable(n)
			if !reflect.DeepEqual(got.ids, want.ids) {
				t.Fatalf("%d threads: content keys %v, want %v", n, got.ids, want.ids)
			}
			for g := 0; g < ix.totalWins; g++ {
				gl, wl := got.arena[got.offs[g]:got.offs[g+1]], want.arena[want.offs[g]:want.offs[g+1]]
				if !slices.Equal(gl, wl) {
					t.Fatalf("%d threads, window %d: %v, transposed profiles %v", n, g, gl, wl)
				}
			}
			for p := range prots {
				if prof, fresh := got.Profile(p), ix.SequenceSimilarity(ix.Protein(p), 1); !reflect.DeepEqual(prof, fresh) {
					t.Fatalf("%d threads, protein %d: Profile %+v, fresh search %+v", n, p, prof, fresh)
				}
			}
		}
	})
}
