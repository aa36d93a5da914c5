package simindex

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/seq"
	"repro/internal/submat"
)

// foldHits reduces a (protein, pos)-sorted hit list to the per-window
// form the searcher produces: best score per protein, protein-ascending,
// nil when empty.
func foldHits(hits []Hit) []WinScore {
	var out []WinScore
	for _, h := range hits {
		if n := len(out); n > 0 && out[n-1].Protein == h.Protein {
			out[n-1].Score = max(out[n-1].Score, h.Score)
		} else {
			out = append(out, WinScore{Protein: h.Protein, Score: h.Score})
		}
	}
	return out
}

// seededWindow is a test-local per-window seeded search that seeds from
// res and scores from qidx, so that (unlike SimilarWindows, which derives
// the letters from the indices) it can express a residue ReduceKmer
// rejects.
func seededWindow(ix *Index, qidx []int8, res string, i int) []WinScore {
	w, k := ix.cfg.Window, ix.cfg.SeedLen
	seen := map[WinRef]bool{}
	var hits []Hit
	for off := 0; off+k <= w; off++ {
		key, ok := ix.cfg.Reduced.ReduceKmer(res, i+off, k)
		if !ok {
			continue
		}
		for _, ref := range ix.refs(key) {
			start := int(ref.Pos) - off
			cand := WinRef{Protein: ref.Protein, Pos: int32(start)}
			if start < 0 || start+w > len(ix.indices[ref.Protein]) || seen[cand] {
				continue
			}
			seen[cand] = true
			if sc := ix.cfg.Matrix.WindowScoreIdx(qidx, i, ix.indices[ref.Protein], start, w); sc >= ix.cfg.Threshold {
				hits = append(hits, Hit{Protein: ref.Protein, Pos: int32(start), Score: int32(sc)})
			}
		}
	}
	sort.Slice(hits, func(a, b int) bool {
		if hits[a].Protein != hits[b].Protein {
			return hits[a].Protein < hits[b].Protein
		}
		return hits[a].Pos < hits[b].Pos
	})
	return foldHits(hits)
}

// runLists resolves windows lo..hi of the query through the run search
// (cut at maxRun by searchWindows, as every caller cuts it) and returns
// the per-window lists plus the number of hits found.
func runLists(ix *Index, qidx []int8, res string, lo, hi int) ([][]WinScore, int) {
	wins := make([]int32, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		wins = append(wins, int32(i))
	}
	perWin := make([][]WinScore, len(res)-ix.cfg.Window+1)
	s := ix.getSearcher(false)
	s.searchWindows(qidx, res, wins, perWin)
	ix.putSearcher(s)
	hits := 0
	for _, l := range perWin[lo : hi+1] {
		hits += len(l)
	}
	return perWin[lo : hi+1], hits
}

// checkRun asserts the run search of lo..hi equals the public per-window
// search folded to best-per-protein, and returns the hit count.
func checkRun(t testing.TB, ix *Index, q seq.Sequence, lo, hi int) int {
	t.Helper()
	qidx := q.Indices()
	got, hits := runLists(ix, qidx, q.Residues(), lo, hi)
	for i := lo; i <= hi; i++ {
		if want := foldHits(ix.SimilarWindows(qidx, i)); !reflect.DeepEqual(got[i-lo], want) {
			t.Fatalf("run [%d,%d] of %q, window %d:\n got %+v\nwant %+v", lo, hi, q.Residues(), i, got[i-lo], want)
		}
	}
	return hits
}

// runTestProteome mixes mutated copies of one base protein (so similar
// windows exist) with proteins shorter than w, shorter than w + a run,
// and unrelated ones.
func runTestProteome(t testing.TB, rng *rand.Rand) []seq.Sequence {
	t.Helper()
	prots := makeProteome(t, rng, 6, 140, 0.12)
	base := prots[0].Residues()
	for _, frag := range []string{base[3:8], base[10:29], base[40:60], base[30:55], base[70:110]} {
		prots = append(prots, seq.MustNew(pname(len(prots)), frag))
	}
	for i := 0; i < 3; i++ {
		prots = append(prots, seq.Random(rng, pname(len(prots)), 90, seq.YeastComposition()))
	}
	return prots
}

// runTestQueries returns queries whose diagonals against the proteome
// start before, end after, and lie inside the targets: a mutated whole
// protein, an internal fragment, and short proteins embedded in random
// flanks (the flanks' windows align past either end of the target).
func runTestQueries(t testing.TB, rng *rand.Rand, prots []seq.Sequence) []seq.Sequence {
	t.Helper()
	sampler := seq.NewSampler(seq.YeastComposition())
	flank := func(n int) string { return seq.Random(rng, "f", n, seq.YeastComposition()).Residues() }
	base := prots[0].Residues()
	return []seq.Sequence{
		seq.Mutate(rng, prots[0], 0.06, sampler),
		seq.MustNew("frag", base[25:115]),
		seq.MustNew("embedShort", flank(33)+prots[8].Residues()+flank(41)),
		seq.MustNew("embedMid", flank(70)+prots[10].Residues()+flank(5)),
		seq.MustNew("overhang", base[120:]+flank(60)+base[:25]),
		seq.Random(rng, "unrelated", 100, seq.YeastComposition()),
	}
}

func TestRunSearchMatchesPerWindow(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"default", Config{}},
		{"lowThreshold", Config{Threshold: 18}},
		{"dayhoff6", Config{Reduced: seq.Dayhoff6(), Threshold: 30}},
		{"identity20", Config{Reduced: seq.Identity20(), Threshold: 30}},
		{"blosum62", Config{Matrix: submat.BLOSUM62(), Threshold: 30}},
		{"w12k3", Config{Window: 12, SeedLen: 3, Threshold: 22}},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			prots := runTestProteome(t, rng)
			ix, err := Build(prots, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if wantMap := tc.name == "identity20"; (ix.denseOff == nil) != wantMap {
				t.Fatalf("dense table present = %v", ix.denseOff != nil)
			}
			w := ix.cfg.Window
			hits := 0
			for _, q := range runTestQueries(t, rng, prots) {
				nw := q.NumWindows(w)
				hits += checkRun(t, ix, q, 0, nw-1) // whole query: cut at the cap
				for _, n := range []int{1, 2, w - 1, w, maxRun, maxRun + 1} {
					if n > nw {
						continue
					}
					for trial := 0; trial < 4; trial++ {
						lo := rng.Intn(nw - n + 1)
						checkRun(t, ix, q, lo, lo+n-1)
					}
					checkRun(t, ix, q, 0, n-1)
					checkRun(t, ix, q, nw-n, nw-1)
				}
			}
			if hits == 0 {
				t.Fatal("no hits anywhere: the comparison is vacuous")
			}
		})
	}
}

// A residue the seeding alphabet rejects drops exactly the k-mers that
// cover it, for every window of the run.
func TestRunSearchNonStandardResidue(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	prots := runTestProteome(t, rng)
	ix, err := Build(prots, Config{Threshold: 25})
	if err != nil {
		t.Fatal(err)
	}
	q := prots[1]
	qidx := q.Indices()
	hits := 0
	for _, x := range []int{0, 37, q.Len() - 1} {
		res := q.Residues()[:x] + "X" + q.Residues()[x+1:]
		nw := q.NumWindows(ix.cfg.Window)
		got, n := runLists(ix, qidx, res, 0, nw-1)
		hits += n
		for i := 0; i < nw; i++ {
			if want := seededWindow(ix, qidx, res, i); !reflect.DeepEqual(got[i], want) {
				t.Fatalf("X at %d, window %d:\n got %+v\nwant %+v", x, i, got[i], want)
			}
		}
	}
	if hits == 0 {
		t.Fatal("no hits: the comparison is vacuous")
	}
}

// The searcher's only proteome-sized scratch is the diagonal slot table,
// no larger than the per-window stamp array it replaced plus one run of
// diagonals per protein.
func TestSearcherScratchBound(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	prots := runTestProteome(t, rng)
	ix, err := Build(prots, Config{Threshold: 20})
	if err != nil {
		t.Fatal(err)
	}
	q := prots[0]
	s := ix.getSearcher(false)
	defer ix.putSearcher(s)
	perWin := make([][]WinScore, q.NumWindows(ix.cfg.Window))
	wins := make([]int32, len(perWin))
	for i := range wins {
		wins[i] = int32(i)
	}
	s.searchWindows(q.Indices(), q.Residues(), wins, perWin)
	bound := 4 * (ix.totalWins + maxRun*len(prots))
	if got := 4 * cap(s.slot); got == 0 || got > bound {
		t.Fatalf("slot table %d B, want in (0, %d]", got, bound)
	}
	// Everything else is sized by one run's candidates, not the proteome.
	if got := cap(s.qrows); got > maxRun-1+ix.cfg.Window {
		t.Fatalf("qrows cap %d exceeds one run's span", got)
	}
	if got, most := cap(s.diags), ix.posCount; got >= most {
		t.Fatalf("diags cap %d is not sparse (index holds %d seed positions)", got, most)
	}
}

var fuzzIndex struct {
	once sync.Once
	ix   *Index
	base string
}

// fuzzSetup builds the fixed index FuzzRunSearch searches and the query
// template its inputs perturb: zero bytes reproduce proteome fragments
// (many hits, diagonals crossing both target ends), other bytes mutate.
func fuzzSetup(t testing.TB) (*Index, string) {
	fuzzIndex.once.Do(func() {
		rng := rand.New(rand.NewSource(34))
		prots := runTestProteome(t, rng)
		ix, err := Build(prots, Config{Threshold: 22})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, q := range runTestQueries(t, rng, prots)[1:4] {
			b.WriteString(q.Residues())
		}
		fuzzIndex.ix, fuzzIndex.base = ix, b.String()
	})
	return fuzzIndex.ix, fuzzIndex.base
}

func FuzzRunSearch(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add(append([]byte{5, 19}, make([]byte, 60)...))
	f.Add(append([]byte{0, 255}, make([]byte, 200)...))
	f.Add([]byte{200, 64, 3, 0, 0, 7, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 19, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, base := fuzzSetup(t)
		w := ix.cfg.Window
		if len(data) < 2 {
			return
		}
		// Bytes 0 and 1 choose the run; the rest shift the template's
		// residues (a short input leaves the template's tail untouched).
		res := []byte(base)
		for i, b := range data[2:] {
			if i >= len(res) {
				break
			}
			res[i] = seq.Letter((seq.Index(res[i]) + int(b)) % seq.NumAminoAcids)
		}
		nw := len(res) - w + 1
		lo := int(data[0]) % nw
		hi := lo + int(data[1])%(nw-lo)
		checkRun(t, ix, seq.MustNew("fuzz", string(res)), lo, hi)
	})
}
