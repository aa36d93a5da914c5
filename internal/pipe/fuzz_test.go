package pipe

import (
	"testing"

	"repro/internal/seq"
)

// fuzzKey is the part of a Config the fuzzer chooses.
type fuzzKey struct {
	radius, minEvid, minOcc, support, topFrac byte
}

func (k fuzzKey) config() Config {
	return Config{
		FilterRadius: int(k.radius),
		Unfiltered:   k.radius == 0,
		MinEvidence:  int(k.minEvid),
		MinOcc:       int(k.minOcc),
		CellSupport:  []float64{0.5, 0.05, 0.2, 2}[k.support],
		TopFrac:      []float64{0.01, 0.002, 0.2, 1}[k.topFrac],
	}
}

// fuzzWorld is one engine per fuzzed config, each with its own reused
// Scorer and its targets' seed-layout contexts. The engines share the
// package test proteome, its similarity index and its database profiles
// (none of which depend on the fuzzed fields), so a new config costs
// only the per-protein derived vectors and a window table.
type fuzzWorld struct {
	e      *Engine
	scorer *Scorer
	golden map[int]*goldenQuery
}

// fuzzWorlds is per process; a fuzz worker calls the target serially.
var fuzzWorlds = map[fuzzKey]*fuzzWorld{}

func fuzzWorldFor(t *testing.T, k fuzzKey) *fuzzWorld {
	if w, ok := fuzzWorlds[k]; ok {
		return w
	}
	_, base := testSetup(t)
	cfg := k.config().withDefaults()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	e := newEngine(cfg, base.graph, base.index, base.DBProfiles())
	w := &fuzzWorld{e: e, scorer: e.NewScorer(), golden: map[int]*goldenQuery{}}
	fuzzWorlds[k] = w
	return w
}

// fuzzQuery assembles a query from ops of three bytes each: an even
// first byte copies a fragment of a proteome protein (second byte picks
// protein and offset, third the length), an odd one appends noise
// residues derived from the bytes.
func fuzzQuery(proteins []seq.Sequence, ops []byte) string {
	var res []byte
	for ; len(ops) >= 3 && len(res) < 260; ops = ops[3:] {
		n := 4 + int(ops[2])%44
		if ops[0]%2 == 0 {
			src := proteins[(int(ops[0])/2+int(ops[1]))%len(proteins)].Residues()
			off := int(ops[1]) * 3 % len(src)
			res = append(res, src[off:min(off+n, len(src))]...)
			continue
		}
		for i := 0; i < n; i++ {
			res = append(res, seq.Letter((int(ops[0])+int(ops[1])*(i+1)+i*i)%seq.NumAminoAcids))
		}
	}
	return string(res)
}

// FuzzScoreMatchesGolden checks Scorer.Score against the frozen seed
// kernel bitwise, on a Scorer reused across every input of its config:
// bytes 0-4 choose FilterRadius 0-3 (0 is Unfiltered), MinEvidence 1-9
// (one to four evidence bit-planes), MinOcc 1-2 (at 1 the targets have
// 81-180 eligible columns: two- and three-word masks), CellSupport and
// TopFrac; bytes 5-8 choose four targets; the rest assemble the query.
func FuzzScoreMatchesGolden(f *testing.F) {
	f.Add([]byte{1, 1, 1, 0, 0, 0, 7, 19, 33, 0, 10, 40, 0, 50, 40, 1, 3, 20})
	f.Add([]byte{0, 0, 0, 1, 2, 1, 2, 3, 4, 2, 0, 43, 4, 9, 43, 6, 30, 43})
	f.Add([]byte{3, 2, 1, 3, 3, 90, 91, 92, 93, 1, 1, 43, 1, 2, 43})
	f.Add([]byte{1, 4, 0, 1, 2, 12, 40, 77, 101, 24, 0, 43, 24, 14, 43, 24, 28, 43})
	f.Add([]byte{2, 8, 0, 1, 3, 3, 60, 61, 120, 0, 10, 40, 0, 50, 40, 6, 30, 43, 24, 0, 43})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		k := fuzzKey{
			radius:  data[0] % 4,
			minEvid: 1 + data[1]%9,
			minOcc:  1 + data[2]%2,
			support: data[3] % 4,
			topFrac: data[4] % 4,
		}
		pr, _ := testSetup(t)
		res := fuzzQuery(pr.Proteins, data[9:])
		s, err := seq.New("fuzz", res)
		if err != nil || s.Len() < 20 {
			return
		}
		w := fuzzWorldFor(t, k)
		q := w.e.NewQuery(s, 1)
		gq := goldenFromQuery(w.e, q)
		for _, b := range data[5:9] {
			id := int(b) % len(pr.Proteins)
			gb, ok := w.golden[id]
			if !ok {
				gb = goldenFromQuery(w.e, w.e.db[id])
				w.golden[id] = gb
			}
			want := goldenScore(w.e, gq, gb)
			if got := w.scorer.Score(q, id); got != want {
				t.Fatalf("config %+v target %d query %q: Score = %v, seed kernel %v", k, id, res, got, want)
			}
		}
	})
}
