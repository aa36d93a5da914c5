package simindex

import (
	"hash/crc32"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/seq"
	"repro/internal/submat"
)

// perProteinProfiles is every protein searched against the whole
// proteome on its own: the reference for profiles assembled from a
// window table.
func perProteinProfiles(ix *Index) []FlatProfile {
	out := make([]FlatProfile, ix.NumProteins())
	for p := range out {
		out[p] = ix.SequenceSimilarity(ix.Protein(p), 1)
	}
	return out
}

// checkProteomeProfiles asserts that every protein's profile, assembled
// by a table that starts empty and is filled on first touch by
// concurrent Profile calls, and again from the filled table, equals the
// per-protein search for each worker count, and returns the number of
// profile entries.
func checkProteomeProfiles(t testing.TB, ix *Index, threads ...int) int {
	t.Helper()
	want := perProteinProfiles(ix)
	for _, n := range threads {
		table := ix.NewWindowCache(nil)
		for _, pass := range []string{"first touch", "filled"} {
			claimEach(len(want), n, func(next func() (int, bool)) {
				for p, ok := next(); ok; p, ok = next() {
					if got := table.Profile(p); !reflect.DeepEqual(got, want[p]) {
						t.Errorf("%d threads, %s, protein %d (%d residues):\n got %+v\nwant %+v", n, pass, p, ix.Protein(p).Len(), got, want[p])
					}
				}
			})
		}
	}
	entries := 0
	for _, prof := range want {
		entries += prof.NumEntries()
	}
	return entries
}

// mapSeedTable is the seed table as a map, filled position by position
// from the proteins keep holds (every protein when keep is nil), keys
// from ReduceKmer at each position: the form Build used to make first
// and copy into the dense table, and, restricted to a reach set, the
// table a reach gate's searches seed from.
func mapSeedTable(ix *Index, keep func(p int32) bool) map[uint64][]WinRef {
	m := map[uint64][]WinRef{}
	k := ix.cfg.SeedLen
	for p := 0; p < ix.NumProteins(); p++ {
		if keep != nil && !keep(int32(p)) {
			continue
		}
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
	checkTableAgainst(t, ix, mapSeedTable(ix, nil))
}

// checkTableAgainst asserts ix's seed table is the map m: the same refs,
// in order, under every key, no other position, and no empty bucket.
func checkTableAgainst(t testing.TB, ix *Index, m map[uint64][]WinRef) {
	t.Helper()
	total := 0
	for key, refs := range m {
		if got := ix.refs(key); !reflect.DeepEqual(got, refs) {
			t.Fatalf("key %d: table %v, map %v", key, got, refs)
		}
		total += len(refs)
	}
	if total != ix.posCount || (ix.denseOff != nil && len(ix.denseRefs) != total) {
		t.Fatalf("table holds %d positions (%d dense), the map %d", ix.posCount, len(ix.denseRefs), total)
	}
	if ix.buckets != nil && len(ix.buckets) != len(m) {
		t.Fatalf("table holds %d buckets, the map %d", len(ix.buckets), len(m))
	}
}

// checkGateTables asserts, for the empty and the full reach set and
// sets random ones drawn from rng, that the reach gate's seed table is
// the map of ix's reach proteins' seeds, held as map buckets.
func checkGateTables(t testing.TB, ix *Index, rng *rand.Rand, sets int) {
	t.Helper()
	n := ix.NumProteins()
	words := (n + 63) / 64
	reaches := [][]uint64{make([]uint64, words), make([]uint64, words)}
	for p := 0; p < n; p++ {
		reaches[1][p>>6] |= 1 << (p & 63)
	}
	for i := 0; i < sets; i++ {
		reach := make([]uint64, words)
		for p := 0; p < n; p++ {
			if rng.Intn(2) == 0 {
				reach[p>>6] |= 1 << (p & 63)
			}
		}
		reaches = append(reaches, reach)
	}
	for _, reach := range reaches {
		g := ix.NewReachGate(reach, 1)
		gi := g.index()
		if gi.denseOff != nil || gi.buckets == nil {
			t.Fatalf("gate table has %d dense offsets and map buckets %v", len(gi.denseOff), gi.buckets != nil)
		}
		checkTableAgainst(t, gi, mapSeedTable(ix, g.has))
	}
}

// checkWindowIndex asserts that table c's content index finds, for every
// natural window, the position of the first window with its content, as
// a map filled window by window in order records it, and -1 for keys no
// natural window has: each window with one residue changed, the
// concatenated residues across each protein boundary, and keys one
// residue short or long.
func checkWindowIndex(t testing.TB, c *WindowCache) {
	t.Helper()
	ix, w := c.ix, c.ix.cfg.Window
	first := map[string]int32{}
	var absent []string
	for p := 0; p < ix.NumProteins(); p++ {
		res, lo := ix.Protein(p).Residues(), ix.protOff[p]
		for i := 0; i+w <= len(res); i++ {
			if _, ok := first[res[i:i+w]]; !ok {
				first[res[i:i+w]] = lo + int32(i)
			}
		}
		if int(lo) >= w/2 && int(lo)+w-w/2 <= len(c.res) {
			absent = append(absent, c.res[int(lo)-w/2:int(lo)+w-w/2])
		}
		if len(res) >= w {
			absent = append(absent, res[:w-1], res[:w-1]+"AA")
			for i := 0; i+w <= len(res); i += 3 {
				b := []byte(res[i : i+w])
				b[i%w] = seq.Letter((seq.Index(b[i%w]) + 1) % seq.NumAminoAcids)
				absent = append(absent, string(b))
			}
		}
	}
	for key, pos := range first {
		if got := c.find(key); got != pos {
			t.Fatalf("window %q: find %d, first occurrence %d", key, got, pos)
		}
	}
	for _, key := range absent {
		if _, natural := first[key]; !natural {
			if got := c.find(key); got != -1 {
				t.Fatalf("key %q no natural window has: find %d", key, got)
			}
		}
	}
	if c.entries != len(first) {
		t.Fatalf("table counts %d distinct windows, the map %d", c.entries, len(first))
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
	m := mapSeedTable(ix, nil)
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

// Every protein's profile assembled from a table filled on first touch
// by 1, 2, 3 and 8 concurrent Profile callers is its per-protein search,
// under six index configs (both seed-table kinds among them).
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

// The same on an empty proteome, one of nothing but proteins shorter
// than the window, and one protein alone.
func TestProteomeProfilesEdgeCases(t *testing.T) {
	ix, err := Build(nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := checkProteomeProfiles(t, ix, 2); got != 0 {
		t.Fatalf("empty proteome gave %d profile entries", got)
	}
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
			checkGateTables(t, ix, rand.New(rand.NewSource(39)), 4)
			checkWindowIndex(t, ix.NewWindowCache(nil))
		})
	}
}

// The seed tables, base and gated, and the window table's content index
// hold on proteomes of proteins shorter than the seed, as long as it,
// between it and the window, and as long as the window, alone and
// beside longer ones and exact duplicates, on a dense key space and on
// Identity20's, which takes the map buckets.
func TestTablesShortProteins(t *testing.T) {
	long := seq.Random(rand.New(rand.NewSource(40)), "long", 90, seq.YeastComposition()).Residues()
	for _, cfg := range []Config{{}, {Reduced: seq.Identity20()}, {Window: 8, SeedLen: 3, Reduced: seq.Identity20()}} {
		c := cfg.withDefaults()
		k, w := c.SeedLen, c.Window
		lens := []int{0, 1, k - 1, k, k + 1, w - 1, w, w + 1}
		for _, withLong := range []bool{false, true} {
			var prots []seq.Sequence
			for i, n := range lens {
				prots = append(prots, seq.MustNew(pname(len(prots)), long[3*i:3*i+n]))
			}
			if withLong {
				prots = append(prots, seq.MustNew(pname(len(prots)), long), prots[6].WithName(pname(len(prots)+1)))
			}
			ix, err := Build(prots, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if dense := denseKeySpace(c) > 0; dense != (ix.denseOff != nil) || dense == (ix.buckets != nil) {
				t.Fatalf("%s k%d: dense key space %v, table dense %v", c.Reduced.Name(), k, dense, ix.denseOff != nil)
			}
			checkSeedTable(t, ix)
			checkGateTables(t, ix, rand.New(rand.NewSource(41)), 3)
			checkWindowIndex(t, ix.NewWindowCache(nil))
		}
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

// FuzzProteomeProfiles checks, on small proteomes, that every protein's
// profile read from a table filled on first touch by 1-3 concurrent
// Profile callers, and read again from the filled table, is its
// per-protein search.
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
		checkProteomeProfiles(t, ix, 1, 2, 3)
	})
}

// FuzzProteomeTable checks the proteome's seed and window tables on
// small proteomes: the counted seed table is a map filled position by
// position, and a reach gate's table (empty, full and two random reach
// sets) that map restricted to the reach proteins; each table's content
// index finds every window's first occurrence and no other key; at
// every window, the list a table filled on first touch by
// concurrent Profile calls (1-3 threads) holds is what the transposition
// of the per-protein profiles holds; the filled table's content keys are
// the transposed table's, and each protein's profile assembled from it
// is a fresh search of the protein.
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
		checkSeedTable(t, ix)
		checkGateTables(t, ix, rand.New(rand.NewSource(int64(crc32.ChecksumIEEE(data)))), 2)
		fresh := perProteinProfiles(ix)
		want := ix.NewWindowCache(fresh)
		checkWindowIndex(t, want)
		for _, n := range []int{1, 2, 3} {
			got := ix.NewWindowCache(nil)
			checkWindowIndex(t, got)
			claimEach(len(prots), n, func(next func() (int, bool)) {
				for p, ok := next(); ok; p, ok = next() {
					if prof := got.Profile(p); !reflect.DeepEqual(prof, fresh[p]) {
						t.Errorf("%d threads, protein %d: Profile %+v, fresh search %+v", n, p, prof, fresh[p])
					}
				}
			})
			for g := 0; g < ix.totalWins; g++ {
				gl, ok := windowAt(got, g)
				if wl, _ := windowAt(want, g); !ok || !slices.Equal(gl, wl) {
					t.Fatalf("%d threads, window %d filled on first touch: %v, transposed profiles %v", n, g, gl, wl)
				}
			}
			if st := got.Stats(); st.Filled != int64(ix.totalWins) || st.Entries != want.Stats().Entries || st.Hits != 0 || st.Misses != 0 {
				t.Fatalf("%d threads: %+v after every Profile, want %d filled and no lookups", n, st, ix.totalWins)
			}
		}
	})
}
