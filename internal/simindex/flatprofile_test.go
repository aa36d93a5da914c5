package simindex

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func randomProfile(rng *rand.Rand, nProteins, maxEntries int) Profile {
	prof := Profile{}
	for id := 0; id < nProteins; id++ {
		if rng.Intn(2) == 0 {
			continue
		}
		n := 1 + rng.Intn(maxEntries)
		entries := make([]PosScore, n)
		for k := range entries {
			entries[k] = PosScore{Pos: int32(rng.Intn(50)), Score: int32(20 + rng.Intn(40))}
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].Pos < entries[j].Pos })
		prof[int32(id)] = entries
	}
	return prof
}

func TestFlatProfileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		prof := randomProfile(rng, 30, 8)
		flat := FlatFromProfile(prof)
		if flat.NumProteins() != len(prof) {
			t.Fatalf("NumProteins = %d, want %d", flat.NumProteins(), len(prof))
		}
		entries := 0
		for _, e := range prof {
			entries += len(e)
		}
		if flat.NumEntries() != entries {
			t.Fatalf("NumEntries = %d, want %d", flat.NumEntries(), entries)
		}
		back := flat.ToProfile()
		if len(prof) == 0 {
			if len(back) != 0 {
				t.Fatal("empty profile round-trip not empty")
			}
		} else if !reflect.DeepEqual(back, prof) {
			t.Fatalf("round trip diverged:\n got %v\nwant %v", back, prof)
		}
		// IDs strictly sorted; offsets monotone and complete.
		for r := 1; r < len(flat.IDs); r++ {
			if flat.IDs[r] <= flat.IDs[r-1] {
				t.Fatal("IDs not strictly sorted")
			}
		}
		if flat.Offsets[0] != 0 || int(flat.Offsets[len(flat.Offsets)-1]) != flat.NumEntries() {
			t.Fatalf("bad offsets: %v", flat.Offsets)
		}
	}
}

func TestFlatProfileRowLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	prof := randomProfile(rng, 40, 6)
	flat := FlatFromProfile(prof)
	for r, id := range flat.IDs {
		if got := flat.RowOf(id); got != r {
			t.Fatalf("RowOf(%d) = %d, want %d", id, got, r)
		}
		pos, score := flat.Row(r)
		want := prof[id]
		if len(pos) != len(want) || len(score) != len(want) {
			t.Fatalf("row %d length mismatch", r)
		}
		for k := range want {
			if pos[k] != want[k].Pos || score[k] != want[k].Score {
				t.Fatalf("row %d entry %d: (%d,%d) want %+v", r, k, pos[k], score[k], want[k])
			}
		}
		if !reflect.DeepEqual(flat.Entries(r), want) {
			t.Fatalf("Entries(%d) mismatch", r)
		}
	}
	for id := int32(0); id < 40; id++ {
		if _, ok := prof[id]; !ok {
			if got := flat.RowOf(id); got != -1 {
				t.Fatalf("RowOf(absent %d) = %d, want -1", id, got)
			}
		}
	}
	if !reflect.DeepEqual(flat.SimilarProteins(), flat.IDs) {
		t.Fatal("SimilarProteins should expose the sorted ID list")
	}
}

// TestMergeFlatMatchesSequential checks the parallel-merge path: merging
// per-thread partial profiles must equal flattening their combined map
// with best-score-per-(protein,pos) semantics.
func TestMergeFlatMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 10; trial++ {
		parts := make([]Profile, 1+rng.Intn(4))
		combined := Profile{}
		for i := range parts {
			parts[i] = randomProfile(rng, 25, 5)
			for id, entries := range parts[i] {
				combined[id] = append(combined[id], entries...)
			}
		}
		// Reference semantics: per (protein, pos) keep the best score.
		want := Profile{}
		for id, entries := range combined {
			best := map[int32]int32{}
			for _, e := range entries {
				if s, ok := best[e.Pos]; !ok || e.Score > s {
					best[e.Pos] = e.Score
				}
			}
			out := make([]PosScore, 0, len(best))
			for pos, score := range best {
				out = append(out, PosScore{Pos: pos, Score: score})
			}
			sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
			want[id] = out
		}
		got := mergeFlat(parts).ToProfile()
		if len(want) == 0 {
			if len(got) != 0 {
				t.Fatal("merge of empty parts not empty")
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: mergeFlat diverged:\n got %v\nwant %v", trial, got, want)
		}
	}
}

// TestFlatProfileCheckRejects: every way a profile's structure can be
// wrong for the proteome and sequence it claims to describe is an error
// from Check, the guard in front of everything that indexes by it.
func TestFlatProfileCheckRejects(t *testing.T) {
	good := func() FlatProfile {
		return FlatProfile{IDs: []int32{2, 5}, Offsets: []int32{0, 2, 3}, Pos: []int32{0, 7, 3}, Score: []int32{40, -3, 9}}
	}
	if p := good(); p.Check(6, 8) != nil {
		t.Fatalf("the well-formed profile: %v", p.Check(6, 8))
	}
	for name, edit := range map[string]func(*FlatProfile){
		"position past the protein": func(p *FlatProfile) { p.Pos[len(p.Pos)-1] = 1 << 20 },
		"protein past the proteome": func(p *FlatProfile) { p.IDs[len(p.IDs)-1] = 54 },
		"negative position":         func(p *FlatProfile) { p.Pos[0] = -1 },
		"positions out of order":    func(p *FlatProfile) { p.Pos[0], p.Pos[1] = p.Pos[1], p.Pos[0] },
		"rows out of order":         func(p *FlatProfile) { p.IDs[0], p.IDs[1] = p.IDs[1], p.IDs[0] },
		"offsets past the entries":  func(p *FlatProfile) { p.Offsets[1] = int32(len(p.Pos)) + 1 },
		"offsets decrease":          func(p *FlatProfile) { p.Offsets[1] = -1 },
		"offsets short of entries":  func(p *FlatProfile) { p.Offsets[len(p.Offsets)-1]-- },
		"no offsets":                func(p *FlatProfile) { p.Offsets = nil },
		"a score missing":           func(p *FlatProfile) { p.Score = p.Score[1:] },
	} {
		p := good()
		edit(&p)
		if p.Check(6, 8) == nil {
			t.Errorf("%s: accepted %+v", name, p)
		}
	}
}
