package simindex

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/seq"
)

// sameProfile compares slice contents: a parsed profile with no rows has
// empty slices where a searched one may have nil ones.
func sameProfile(a, b FlatProfile) bool {
	return slices.Equal(a.IDs, b.IDs) && slices.Equal(a.Offsets, b.Offsets) &&
		slices.Equal(a.Pos, b.Pos) && slices.Equal(a.Score, b.Score)
}

// checkWireProfile is what ParseWire promises of anything it accepts.
func checkWireProfile(t *testing.T, p FlatProfile, numProteins, numWindows int) {
	t.Helper()
	if len(p.Offsets) != len(p.IDs)+1 || p.Offsets[0] != 0 || int(p.Offsets[len(p.IDs)]) != len(p.Pos) || len(p.Score) != len(p.Pos) {
		t.Fatalf("%d rows, offsets %v, %d positions, %d scores", len(p.IDs), p.Offsets, len(p.Pos), len(p.Score))
	}
	for r, id := range p.IDs {
		if id < 0 || int(id) >= numProteins || (r > 0 && id <= p.IDs[r-1]) {
			t.Fatalf("row %d: protein %d after %v, proteome of %d", r, id, p.IDs[:r], numProteins)
		}
		pos, _ := p.Row(r)
		if len(pos) == 0 {
			t.Fatalf("row %d is empty", r)
		}
		for j, at := range pos {
			if at < 0 || int(at) >= numWindows || (j > 0 && at <= pos[j-1]) {
				t.Fatalf("row %d: position %d after %v, %d windows", r, at, pos[:j], numWindows)
			}
		}
	}
}

// TestWireProfileRoundTrip: searched profiles, short and long, come back
// from their wire form as they went in, and the form is compact.
func TestWireProfileRoundTrip(t *testing.T) {
	ix, rng := buildTestIndex(t, 61)
	w := ix.Config().Window
	queries := randomSeqs(t, rng, 12, 30, 200)
	queries = append(queries, ix.Protein(3), seq.MustNew("short", "ACDEFGHIKL"))
	var wire, flat int
	for _, q := range queries {
		want := ix.SequenceSimilarity(q, 1)
		b := want.AppendWire(nil)
		got, err := ParseWire(b, ix.NumProteins(), max(q.NumWindows(w), 0))
		if err != nil {
			t.Fatalf("%s: %v", q.Name(), err)
		}
		if !sameProfile(got, want) {
			t.Fatalf("%s: round trip\n got %+v\nwant %+v", q.Name(), got, want)
		}
		checkWireProfile(t, got, ix.NumProteins(), max(q.NumWindows(w), 0))
		if again := got.AppendWire(nil); !bytes.Equal(again, b) {
			t.Fatalf("%s: a parsed profile encodes differently", q.Name())
		}
		wire += len(b)
		flat += 4 * (len(want.IDs) + len(want.Offsets) + 2*len(want.Pos))
	}
	if 2*wire > flat {
		t.Errorf("wire form takes %d bytes for %d bytes of slices, want half at most", wire, flat)
	}
}

// TestParseWireRejects: every way a wire profile can be wrong for the
// index and sequence it is parsed against.
func TestParseWireRejects(t *testing.T) {
	ok := FlatProfile{IDs: []int32{2, 5}, Offsets: []int32{0, 2, 3}, Pos: []int32{0, 7, 3}, Score: []int32{40, -3, 1 << 30}}
	good := ok.AppendWire(nil)
	if p, err := ParseWire(good, 6, 8); err != nil || !sameProfile(p, ok) {
		t.Fatalf("the well-formed profile: %+v, %v", p, err)
	}
	cases := map[string]struct {
		data                    []byte
		numProteins, numWindows int
	}{
		"empty input":                {nil, 6, 8},
		"protein past the proteome":  {good, 5, 8},
		"position past the sequence": {good, 6, 7},
		"truncated":                  {good[:len(good)-1], 6, 8},
		"trailing byte":              {append(slices.Clone(good), 0), 6, 8},
		"more rows than bytes":       {[]byte{200, 1}, 6, 8},
		"overlong varint":            {[]byte{1, 0x80, 0, 0, 0, 80}, 6, 8},
		"row count of 2^63":          {[]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 1}, 6, 8},
		"score past int32":           {[]byte{1, 0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x20}, 6, 8},
		"no proteome":                {good, 0, 8},
		"no windows":                 {good, 6, 0},
	}
	for name, c := range cases {
		if p, err := ParseWire(c.data, c.numProteins, c.numWindows); err == nil {
			t.Errorf("%s: accepted as %+v", name, p)
		}
	}
	if p, err := ParseWire([]byte{0}, 0, 0); err != nil || len(p.IDs) != 0 || !slices.Equal(p.Offsets, []int32{0}) {
		t.Errorf("the empty profile: %+v, %v", p, err)
	}
}

// FuzzParseWireProfile feeds arbitrary bytes and bounds to ParseWire.
// Whatever it accepts has ascending in-range IDs, non-empty rows and
// ascending in-range positions, encodes back to exactly the input and
// parses again to the same profile; accepted or not, it allocates in
// proportion to the input, not to the counts the input claims.
func FuzzParseWireProfile(f *testing.F) {
	rng := rand.New(rand.NewSource(62))
	prots := runTestProteome(f, rng)
	ix, err := Build(prots, Config{Threshold: 22})
	if err != nil {
		f.Fatal(err)
	}
	for _, q := range runTestQueries(f, rng, prots)[:4] {
		f.Add(ix.SequenceSimilarity(q, 1).AppendWire(nil), uint16(ix.NumProteins()), uint16(q.NumWindows(ix.Config().Window)))
	}
	f.Add([]byte{0}, uint16(0), uint16(0))
	f.Add([]byte{1, 0x80, 0, 0, 0, 80}, uint16(6), uint16(8))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, uint16(6), uint16(8))
	f.Fuzz(func(t *testing.T, data []byte, numProteins, numWindows uint16) {
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		start := mem.TotalAlloc
		p, err := ParseWire(data, int(numProteins), int(numWindows))
		runtime.ReadMemStats(&mem)
		if grew := int64(mem.TotalAlloc - start); grew > 64<<10+32*int64(len(data)) {
			t.Fatalf("%d bytes allocated for an input of %d", grew, len(data))
		}
		if err != nil {
			return
		}
		checkWireProfile(t, p, int(numProteins), int(numWindows))
		again := p.AppendWire(nil)
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted %x, which encodes back as %x", data, again)
		}
		if q, err := ParseWire(again, int(numProteins), int(numWindows)); err != nil || !sameProfile(p, q) {
			t.Fatalf("second parse: %+v, %v; first %+v", q, err, p)
		}
	})
}
