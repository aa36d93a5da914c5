package pipe

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/ppigraph"
	"repro/internal/seq"
	"repro/internal/simindex"
)

func TestSaveLoadDBRoundTrip(t *testing.T) {
	pr, eng := testSetup(t)
	var buf bytes.Buffer
	if err := eng.SaveDB(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := NewFromDB(pr.Proteins, pr.Graph, Config{}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	// Scores must be bit-identical to the freshly built engine.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		a, b := rng.Intn(len(pr.Proteins)), rng.Intn(len(pr.Proteins))
		if got, want := loaded.ScorePair(a, b), eng.ScorePair(a, b); got != want {
			t.Fatalf("ScorePair(%d,%d): loaded %v, fresh %v", a, b, got, want)
		}
	}
	// Novel-query scoring too (exercises the index rebuilt at load).
	q := seq.Random(rng, "q", 140, seq.YeastComposition())
	if got, want := loaded.Score(q, 3, 1), eng.Score(q, 3, 1); got != want {
		t.Fatalf("query score: loaded %v, fresh %v", got, want)
	}
}

func TestFingerprintHelpers(t *testing.T) {
	pr, eng := testSetup(t)
	if got, want := Fingerprint(pr.Proteins, Config{}), eng.Fingerprint(); got != want {
		t.Errorf("Fingerprint(proteome, zero config) = %x, engine says %x", got, want)
	}
	path := filepath.Join(t.TempDir(), "pipe.db")
	if err := eng.SaveDBFile(path); err != nil {
		t.Fatal(err)
	}
	fp, err := DBFingerprint(path)
	if err != nil {
		t.Fatal(err)
	}
	if fp != eng.Fingerprint() {
		t.Errorf("DBFingerprint = %x, engine %x", fp, eng.Fingerprint())
	}
	if _, err := DBFingerprint(path + ".missing"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestStaleDBIsDetectable(t *testing.T) {
	pr, eng := testSetup(t)
	var buf bytes.Buffer
	if err := eng.SaveDB(&buf); err != nil {
		t.Fatal(err)
	}
	other := Config{}
	other.Index.Threshold = 40
	_, err := NewFromDB(pr.Proteins, pr.Graph, other, &buf)
	if !errors.Is(err, ErrStaleDB) {
		t.Errorf("fingerprint mismatch error %v is not ErrStaleDB", err)
	}
}

func TestLoadDBRejectsMismatchedProteome(t *testing.T) {
	pr, eng := testSetup(t)
	var buf bytes.Buffer
	if err := eng.SaveDB(&buf); err != nil {
		t.Fatal(err)
	}
	// Tamper with one protein: rename it (graph must match, so rebuild
	// both from the altered name list is overkill — reuse the same graph
	// with a reordered protein list, which changes the fingerprint).
	reordered := append([]seq.Sequence(nil), pr.Proteins...)
	reordered[0], reordered[1] = reordered[1], reordered[0]
	if _, err := NewFromDB(reordered, pr.Graph, Config{}, &buf); err == nil {
		t.Error("mismatched proteome accepted")
	}
}

func TestLoadDBRejectsMismatchedConfig(t *testing.T) {
	pr, eng := testSetup(t)
	var buf bytes.Buffer
	if err := eng.SaveDB(&buf); err != nil {
		t.Fatal(err)
	}
	other := Config{}
	other.Index.Threshold = 40
	if _, err := NewFromDB(pr.Proteins, pr.Graph, other, &buf); err == nil {
		t.Error("mismatched config accepted")
	}
}

func TestLoadDBRejectsGarbage(t *testing.T) {
	pr, _ := testSetup(t)
	if _, err := NewFromDB(pr.Proteins, pr.Graph, Config{},
		bytes.NewReader([]byte("not a database"))); err == nil {
		t.Error("garbage input accepted")
	}
}

func TestDBFileRoundTrip(t *testing.T) {
	pr, eng := testSetup(t)
	path := filepath.Join(t.TempDir(), "pipe.db")
	if err := eng.SaveDBFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := NewFromDBFile(pr.Proteins, pr.Graph, Config{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.ScorePair(2, 5), eng.ScorePair(2, 5); got != want {
		t.Fatalf("file round trip: %v != %v", got, want)
	}
	if _, err := NewFromDBFile(pr.Proteins, pr.Graph, Config{}, path+".missing"); err == nil {
		t.Error("missing file accepted")
	}
}

// fuzzDBWorld is the four-protein proteome FuzzNewFromDB loads databases
// for — small enough that a whole database file is a few hundred bytes.
// Protein 3 carries a stretch of protein 0, so profiles have rows for
// proteins other than their own.
func fuzzDBWorld() ([]seq.Sequence, *ppigraph.Graph) {
	rng := rand.New(rand.NewSource(25))
	proteins := make([]seq.Sequence, 4)
	b := ppigraph.NewBuilder()
	for i, n := range []int{60, 45, 30, 50} {
		proteins[i] = seq.Random(rng, string(rune('A'+i)), n, seq.YeastComposition())
		b.AddProtein(proteins[i].Name())
	}
	proteins[3] = seq.MustNew("D", proteins[0].Residues()[10:40]+proteins[3].Residues()[30:])
	for _, ed := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}} {
		b.AddEdgeID(ed[0], ed[1])
	}
	return proteins, b.Build()
}

// fuzzDBFile is the database SaveDB writes for fuzzDBWorld with its
// first profile edited: what a file whose fingerprint matches but whose
// profile bytes are damaged looks like.
func fuzzDBFile(t testing.TB, edit func(*simindex.FlatProfile)) []byte {
	proteins, g := fuzzDBWorld()
	e, err := New(proteins, g, Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	profiles := e.DBProfiles()
	p := profiles[0]
	p = simindex.FlatProfile{IDs: append([]int32(nil), p.IDs...), Offsets: append([]int32(nil), p.Offsets...),
		Pos: append([]int32(nil), p.Pos...), Score: append([]int32(nil), p.Score...)}
	edit(&p)
	profiles[0] = p
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(dbFile{Version: dbFileVersion, Fingerprint: e.Fingerprint(), Profiles: profiles}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestNewFromDBRejectsDamagedProfiles: a database whose fingerprint
// matches is still checked profile by profile, and every way a profile
// can be wrong for the proteome is an error, not a panic. The first two
// are the reproducers committed to FuzzNewFromDB's corpus.
func TestNewFromDBRejectsDamagedProfiles(t *testing.T) {
	proteins, g := fuzzDBWorld()
	if _, err := NewFromDB(proteins, g, Config{}, bytes.NewReader(fuzzDBFile(t, func(*simindex.FlatProfile) {}))); err != nil {
		t.Fatalf("the undamaged database: %v", err)
	}
	for name, edit := range map[string]func(*simindex.FlatProfile){
		"position past the protein": func(p *simindex.FlatProfile) { p.Pos[len(p.Pos)-1] = 1 << 20 },
		"protein past the proteome": func(p *simindex.FlatProfile) { p.IDs[len(p.IDs)-1] = 54 },
		"negative position":         func(p *simindex.FlatProfile) { p.Pos[0] = -1 },
		"positions out of order":    func(p *simindex.FlatProfile) { p.Pos[0], p.Pos[1] = p.Pos[1], p.Pos[0] },
		"rows out of order":         func(p *simindex.FlatProfile) { p.IDs[0], p.IDs[1] = p.IDs[1], p.IDs[0] },
		"offsets past the entries":  func(p *simindex.FlatProfile) { p.Offsets[1] = int32(len(p.Pos)) + 1 },
		"offsets decrease":          func(p *simindex.FlatProfile) { p.Offsets[1] = -1 },
		"offsets short of entries":  func(p *simindex.FlatProfile) { p.Offsets[len(p.Offsets)-1]-- },
		"no offsets":                func(p *simindex.FlatProfile) { p.Offsets = nil },
		"a score missing":           func(p *simindex.FlatProfile) { p.Score = p.Score[1:] },
	} {
		data := fuzzDBFile(t, edit)
		if _, err := NewFromDB(proteins, g, Config{}, bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzNewFromDB feeds arbitrary bytes to NewFromDB for a fixed proteome
// (ROADMAP item 5(a), "pipe gob DB v2 load"). The seeds are a sound
// database for it and damaged ones whose fingerprint still matches, so
// the fuzzer starts past the fingerprint check. Nothing may panic, and
// an engine it accepts scores every pair in [0, 1] and preprocesses the
// natural proteins through its window table.
func FuzzNewFromDB(f *testing.F) {
	f.Add(fuzzDBFile(f, func(*simindex.FlatProfile) {}))
	f.Add(fuzzDBFile(f, func(p *simindex.FlatProfile) { p.Score[0] = math.MinInt32 }))
	proteins, g := fuzzDBWorld()
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := NewFromDB(proteins, g, Config{}, bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, q := range e.NewQueryBatch(proteins, 1) {
			for b := range proteins {
				if s, p := e.ScorePair(i, b), e.NewScorer().Score(q, b); !(s >= 0 && s <= 1) || !(p >= 0 && p <= 1) {
					t.Fatalf("pair (%d, %d) scores %v from the database, %v from a batch query", i, b, s, p)
				}
			}
		}
	})
}
