package simindex

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/seq"
	"repro/internal/submat"
)

// makeProteome builds a small proteome in which proteins 1..n-1 are
// mutated copies of fragments of protein 0, so window similarities exist
// by construction.
func makeProteome(t testing.TB, rng *rand.Rand, n, length int, mutRate float64) []seq.Sequence {
	t.Helper()
	sampler := seq.NewSampler(seq.YeastComposition())
	base := seq.Random(rng, "P000", length, seq.YeastComposition())
	prots := []seq.Sequence{base}
	for i := 1; i < n; i++ {
		m := seq.Mutate(rng, base, mutRate, sampler)
		prots = append(prots, m.WithName(pname(i)))
	}
	return prots
}

func pname(i int) string {
	return string([]byte{'P', byte('0' + i/100%10), byte('0' + i/10%10), byte('0' + i%10)})
}

func TestBuildDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prots := makeProteome(t, rng, 5, 100, 0.1)
	ix, err := Build(prots, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ix.Config()
	if cfg.Window != 20 || cfg.SeedLen != 5 || cfg.Threshold != 35 {
		t.Errorf("defaults = %+v", cfg)
	}
	if cfg.Matrix.Name() != "PAM120" {
		t.Errorf("default matrix %s", cfg.Matrix.Name())
	}
	if ix.NumProteins() != 5 {
		t.Errorf("NumProteins = %d", ix.NumProteins())
	}
	if ix.NumSeedPositions() != 5*(100-5+1) {
		t.Errorf("NumSeedPositions = %d", ix.NumSeedPositions())
	}
	if ix.Protein(0).Name() != "P000" {
		t.Error("Protein accessor wrong")
	}
}

func TestBuildValidation(t *testing.T) {
	cases := []Config{
		{Window: 1},
		{Window: 10, SeedLen: 11},
		{SeedLen: 13},
	}
	for i, cfg := range cases {
		if _, err := Build(nil, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestSelfWindowAlwaysFound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	prots := makeProteome(t, rng, 3, 150, 0.05)
	ix, err := Build(prots, Config{Window: 20, Threshold: 35})
	if err != nil {
		t.Fatal(err)
	}
	q := prots[0].Indices()
	for pos := 0; pos+20 <= len(q); pos += 13 {
		hits := ix.SimilarWindows(q, pos)
		found := false
		for _, h := range hits {
			if h.Protein == 0 && int(h.Pos) == pos {
				found = true
			}
		}
		if !found {
			t.Errorf("self window at %d not found (exact match must share every seed)", pos)
		}
	}
}

func TestSeededSubsetOfBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	prots := makeProteome(t, rng, 8, 120, 0.15)
	ix, err := Build(prots, Config{Window: 20, Threshold: 30})
	if err != nil {
		t.Fatal(err)
	}
	q := seq.Mutate(rng, prots[0], 0.1, seq.NewSampler(seq.YeastComposition()))
	qidx := q.Indices()
	for pos := 0; pos+20 <= q.Len(); pos += 7 {
		seeded := ix.SimilarWindows(qidx, pos)
		brute := ix.BruteSimilarWindows(qidx, pos)
		bruteSet := map[Hit]bool{}
		for _, h := range brute {
			bruteSet[h] = true
		}
		for _, h := range seeded {
			if !bruteSet[h] {
				t.Fatalf("seeded hit %+v not verified by brute force", h)
			}
		}
	}
}

func TestSeededRecallOnMutatedCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	prots := makeProteome(t, rng, 10, 200, 0.1)
	ix, err := Build(prots, Config{Window: 20, Threshold: 35})
	if err != nil {
		t.Fatal(err)
	}
	q := prots[0]
	qidx := q.Indices()
	totalBrute, totalSeeded := 0, 0
	for pos := 0; pos+20 <= q.Len(); pos += 5 {
		totalSeeded += len(ix.SimilarWindows(qidx, pos))
		totalBrute += len(ix.BruteSimilarWindows(qidx, pos))
	}
	if totalBrute == 0 {
		t.Fatal("test setup produced no brute-force hits")
	}
	recall := float64(totalSeeded) / float64(totalBrute)
	if recall < 0.95 {
		t.Errorf("seeded recall = %.3f (%d/%d), want >= 0.95", recall, totalSeeded, totalBrute)
	}
}

func TestSimilarWindowsSortedAndDeduped(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	prots := makeProteome(t, rng, 6, 100, 0.05)
	ix, _ := Build(prots, Config{Window: 20, Threshold: 20})
	qidx := prots[0].Indices()
	hits := ix.SimilarWindows(qidx, 0)
	for i := 1; i < len(hits); i++ {
		a, b := hits[i-1], hits[i]
		if a.Protein > b.Protein || (a.Protein == b.Protein && a.Pos >= b.Pos) {
			t.Fatalf("hits not strictly sorted: %+v then %+v", a, b)
		}
	}
}

func TestSequenceSimilarityMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	prots := makeProteome(t, rng, 8, 150, 0.1)
	ix, _ := Build(prots, Config{Window: 20, Threshold: 35})
	q := seq.Mutate(rng, prots[0], 0.08, seq.NewSampler(seq.YeastComposition()))
	// Threads take contiguous chunks of the window list, so each count
	// cuts the query into different runs.
	p1 := ix.SequenceSimilarity(q, 1)
	if p1.NumEntries() == 0 {
		t.Fatal("empty profile on mutated-copy proteome")
	}
	for _, threads := range []int{2, 3, 8} {
		if pn := ix.SequenceSimilarity(q, threads); !reflect.DeepEqual(p1, pn) {
			t.Fatalf("%d-thread profile differs from serial:\n%+v\nvs\n%+v", threads, pn, p1)
		}
	}
}

func TestSequenceSimilarityShortQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prots := makeProteome(t, rng, 3, 100, 0.1)
	ix, _ := Build(prots, Config{Window: 20})
	short := seq.MustNew("short", "MKTAY") // shorter than window
	if prof := ix.SequenceSimilarity(short, 4); prof.NumProteins() != 0 || prof.NumEntries() != 0 {
		t.Errorf("short query produced %d profile entries", prof.NumEntries())
	}
}

func TestProfilePositionsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	prots := makeProteome(t, rng, 6, 200, 0.1)
	ix, _ := Build(prots, Config{Window: 20, Threshold: 30})
	prof := ix.SequenceSimilarity(prots[1], 3)
	if prof.NumProteins() == 0 {
		t.Fatal("empty profile on mutated-copy proteome")
	}
	for r, id := range prof.IDs {
		pos, score := prof.Row(r)
		for i := 1; i < len(pos); i++ {
			if pos[i-1] >= pos[i] {
				t.Fatalf("protein %d positions not strictly increasing: %v", id, pos)
			}
		}
		for _, sc := range score {
			if sc < int32(ix.Config().Threshold) {
				t.Fatalf("profile entry score %d below threshold", sc)
			}
		}
	}
	ids := prof.SimilarProteins()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatal("SimilarProteins not sorted")
		}
	}
	if int(prof.Offsets[0]) != 0 || int(prof.Offsets[len(prof.IDs)]) != prof.NumEntries() {
		t.Fatalf("CSR offsets malformed: %v over %d entries", prof.Offsets, prof.NumEntries())
	}
}

func TestUnrelatedProteomeFewHits(t *testing.T) {
	// Independent random proteins should almost never contain windows
	// scoring >= 35: the index must not fabricate similarity.
	rng := rand.New(rand.NewSource(9))
	var prots []seq.Sequence
	for i := 0; i < 10; i++ {
		prots = append(prots, seq.Random(rng, pname(i), 150, seq.YeastComposition()))
	}
	ix, _ := Build(prots, Config{Window: 20, Threshold: 35})
	q := seq.Random(rng, "query", 150, seq.YeastComposition())
	prof := ix.SequenceSimilarity(q, 2)
	if prof.NumProteins() > 2 {
		t.Errorf("random query similar to %d of 10 unrelated proteins", prof.NumProteins())
	}
}

func TestBLOSUMConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	prots := makeProteome(t, rng, 4, 100, 0.05)
	ix, err := Build(prots, Config{Window: 20, Threshold: 40, Matrix: submat.BLOSUM62()})
	if err != nil {
		t.Fatal(err)
	}
	q := prots[0].Indices()
	hits := ix.SimilarWindows(q, 0)
	if len(hits) == 0 {
		t.Error("BLOSUM62 index found no hits for exact self window")
	}
}

func BenchmarkSimilarWindowsSeeded(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	prots := makeProteome(b, rng, 50, 300, 0.2)
	ix, _ := Build(prots, Config{})
	q := prots[0].Indices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.SimilarWindows(q, i%(len(q)-20))
	}
}

func BenchmarkSimilarWindowsBrute(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	prots := makeProteome(b, rng, 50, 300, 0.2)
	ix, _ := Build(prots, Config{})
	q := prots[0].Indices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.BruteSimilarWindows(q, i%(len(q)-20))
	}
}
