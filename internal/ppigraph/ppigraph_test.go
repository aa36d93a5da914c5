package ppigraph

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func buildTriangle() *Graph {
	b := NewBuilder()
	b.AddEdge("A", "B")
	b.AddEdge("B", "C")
	b.AddEdge("C", "A")
	b.AddProtein("Lonely")
	return b.Build()
}

func TestBuildBasics(t *testing.T) {
	g := buildTriangle()
	if g.NumProteins() != 4 {
		t.Fatalf("NumProteins = %d", g.NumProteins())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	idA, ok := g.ID("A")
	if !ok {
		t.Fatal("A not found")
	}
	if g.Name(idA) != "A" {
		t.Error("Name/ID mismatch")
	}
	if _, ok := g.ID("Z"); ok {
		t.Error("found nonexistent protein")
	}
}

func TestDuplicateAndSelfEdges(t *testing.T) {
	b := NewBuilder()
	b.AddEdge("A", "B")
	b.AddEdge("B", "A") // duplicate reversed
	b.AddEdge("A", "B") // duplicate
	b.AddEdge("A", "A") // self-loop
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
	idA, _ := g.ID("A")
	if g.Degree(idA) != 1 {
		t.Errorf("Degree(A) = %d, want 1", g.Degree(idA))
	}
}

func TestAddProteinIdempotent(t *testing.T) {
	b := NewBuilder()
	id1 := b.AddProtein("X")
	id2 := b.AddProtein("X")
	if id1 != id2 {
		t.Error("re-adding a protein produced a new ID")
	}
}

func TestHasEdgeAndNeighbors(t *testing.T) {
	g := buildTriangle()
	a, _ := g.ID("A")
	bID, _ := g.ID("B")
	l, _ := g.ID("Lonely")
	if !g.HasEdge(a, bID) || !g.HasEdge(bID, a) {
		t.Error("HasEdge(A,B) false")
	}
	if g.HasEdge(a, l) {
		t.Error("HasEdge(A,Lonely) true")
	}
	if g.Degree(l) != 0 || len(g.Neighbors(l)) != 0 {
		t.Error("Lonely has neighbors")
	}
	nb := g.Neighbors(a)
	for i := 1; i < len(nb); i++ {
		if nb[i-1] >= nb[i] {
			t.Error("neighbors not sorted")
		}
	}
}

func TestEdgesIterationAndEarlyStop(t *testing.T) {
	g := buildTriangle()
	count := 0
	g.Edges(func(a, b int) bool {
		if a >= b {
			t.Errorf("edge order violated: %d >= %d", a, b)
		}
		count++
		return true
	})
	if count != 3 {
		t.Errorf("iterated %d edges, want 3", count)
	}
	count = 0
	g.Edges(func(a, b int) bool { count++; return false })
	if count != 1 {
		t.Errorf("early stop iterated %d edges", count)
	}
}

func TestStats(t *testing.T) {
	g := buildTriangle()
	s := g.Stats()
	if s.Min != 0 || s.Max != 2 || s.Isolated != 1 {
		t.Errorf("Stats = %+v", s)
	}
	if s.Mean != 6.0/4 {
		t.Errorf("Mean = %f", s.Mean)
	}
	empty := NewBuilder().Build()
	if es := empty.Stats(); es != (DegreeStats{}) {
		t.Errorf("empty Stats = %+v", es)
	}
}

func TestTSVRoundTrip(t *testing.T) {
	g := buildTriangle()
	var buf bytes.Buffer
	if err := g.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumProteins() != g.NumProteins() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: %d/%d vs %d/%d", back.NumProteins(), back.NumEdges(), g.NumProteins(), g.NumEdges())
	}
	// Vertex IDs must round-trip exactly: pipe.New requires graph vertex i
	// to be proteome entry i, so a reload must not reshuffle IDs.
	for id := 0; id < g.NumProteins(); id++ {
		if back.Name(id) != g.Name(id) {
			t.Errorf("vertex %d: round trip renamed %q to %q", id, g.Name(id), back.Name(id))
		}
	}
	// Edge set must match by name.
	g.Edges(func(a, b int) bool {
		ba, ok1 := back.ID(g.Name(a))
		bb, ok2 := back.ID(g.Name(b))
		if !ok1 || !ok2 || !back.HasEdge(ba, bb) {
			t.Errorf("edge %s-%s lost in round trip", g.Name(a), g.Name(b))
		}
		return true
	})
	if _, ok := back.ID("Lonely"); !ok {
		t.Error("isolated vertex lost in round trip")
	}
}

func TestReadTSVErrors(t *testing.T) {
	if _, err := ReadTSV(strings.NewReader("A\tB\tC\n")); err == nil {
		t.Error("accepted 3-field line")
	}
	g, err := ReadTSV(strings.NewReader("# a comment\n\nA\tB\n"))
	if err != nil {
		t.Fatalf("comment handling: %v", err)
	}
	if g.NumEdges() != 1 {
		t.Error("comment line affected edges")
	}
}

// A name starting with '#' came back from ReadTSV, was written as an
// edge line ReadTSV then skipped as a comment, and the edge was gone
// without an error. Neither side takes such a name now.
func TestTSVRejectsNamesItCannotRoundTrip(t *testing.T) {
	for _, in := range []string{"#protein\t#a\nb\t#a\n", "#protein\t#a\n", "b\t#a\n"} {
		if g, err := ReadTSV(strings.NewReader(in)); err == nil {
			t.Errorf("ReadTSV(%q) accepted %d proteins, %d edges", in, g.NumProteins(), g.NumEdges())
		}
	}
	for _, name := range []string{"#a", "a b", "a\tb", "", "a\u00a0b"} {
		b := NewBuilder()
		b.AddEdge("x", name)
		var buf bytes.Buffer
		if err := b.Build().WriteTSV(&buf); err == nil || buf.Len() != 0 {
			t.Errorf("WriteTSV of name %q: err %v, wrote %q", name, err, buf.String())
		}
	}
}

// sameGraph reports whether a and b have the same vertices, in ID order,
// and the same edges.
func sameGraph(a, b *Graph) bool {
	if a.NumProteins() != b.NumProteins() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for id := 0; id < a.NumProteins(); id++ {
		if a.Name(id) != b.Name(id) || !slices.Equal(a.Neighbors(id), b.Neighbors(id)) {
			return false
		}
	}
	return true
}

// FuzzReadTSV: ReadTSV never panics, and a graph it accepts comes back
// equal — same names in the same ID order, same edges — through WriteTSV
// and ReadTSV.
func FuzzReadTSV(f *testing.F) {
	f.Add("#protein\t#a\nb\t#a\n")
	f.Add("#protein\tLonely\n# a comment\nA\tB\nB\tC\nA\tA\n\n")
	f.Add("#protein a b\n  X \t Y  \r\n#protein\tY\n")
	f.Add("A\tB\tC\n")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadTSV(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := g.WriteTSV(&buf); err != nil {
			t.Fatalf("WriteTSV of a graph ReadTSV accepted: %v", err)
		}
		back, err := ReadTSV(&buf)
		if err != nil {
			t.Fatalf("ReadTSV of WriteTSV's output %q: %v", buf.String(), err)
		}
		if !sameGraph(g, back) {
			t.Fatalf("round trip changed the graph: %q came back as %q", in, buf.String())
		}
	})
}

func TestFileRoundTrip(t *testing.T) {
	g := buildTriangle()
	path := t.TempDir() + "/g.tsv"
	if err := g.SaveTSVFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != 3 {
		t.Error("file round trip lost edges")
	}
	if _, err := LoadTSVFile(path + ".missing"); err == nil {
		t.Error("loading missing file succeeded")
	}
}

// Property: for random graphs, HasEdge agrees with the edge list used to
// build the graph, and degrees sum to twice the edge count.
func TestRandomGraphInvariants(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%50
		m := int(mRaw) % 100
		b := NewBuilder()
		for i := 0; i < n; i++ {
			b.AddProtein(fmt.Sprintf("P%03d", i))
		}
		type edge struct{ a, b int }
		want := map[edge]bool{}
		for i := 0; i < m; i++ {
			a, c := rng.Intn(n), rng.Intn(n)
			if a == c {
				continue
			}
			if a > c {
				a, c = c, a
			}
			b.AddEdgeID(a, c)
			want[edge{a, c}] = true
		}
		g := b.Build()
		if g.NumEdges() != len(want) {
			return false
		}
		degSum := 0
		for i := 0; i < n; i++ {
			degSum += g.Degree(i)
		}
		if degSum != 2*len(want) {
			return false
		}
		for e := range want {
			if !g.HasEdge(e.a, e.b) || !g.HasEdge(e.b, e.a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
