// Package ppigraph implements the known protein-protein interaction graph
// G that PIPE mines (Section 2.2 of the paper): every protein is a vertex
// and every experimentally validated interaction is an undirected edge.
// The graph is immutable once built; concurrent readers need no locking,
// which is what lets all PIPE worker threads share one copy (Section 2.3).
package ppigraph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"unicode"
)

// Graph is an undirected protein-interaction graph over proteins
// identified by dense integer IDs (assigned at Build time) with
// human-readable names.
type Graph struct {
	names    []string
	idByName map[string]int
	adj      [][]int32 // sorted neighbor lists
	numEdges int
}

// Builder accumulates proteins and interactions, then freezes them into a
// Graph. Duplicate edges and self-loops are dropped.
type Builder struct {
	names    []string
	idByName map[string]int
	edges    map[[2]int32]struct{}
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{idByName: make(map[string]int), edges: make(map[[2]int32]struct{})}
}

// AddProtein registers a protein name and returns its ID. Re-adding an
// existing name returns the existing ID.
func (b *Builder) AddProtein(name string) int {
	if id, ok := b.idByName[name]; ok {
		return id
	}
	id := len(b.names)
	b.names = append(b.names, name)
	b.idByName[name] = id
	return id
}

// AddEdge records an interaction between the named proteins, registering
// them if needed. Self-loops are ignored.
func (b *Builder) AddEdge(a, c string) {
	ia, ic := b.AddProtein(a), b.AddProtein(c)
	b.AddEdgeID(ia, ic)
}

// AddEdgeID records an interaction between two existing protein IDs.
func (b *Builder) AddEdgeID(ia, ic int) {
	if ia == ic {
		return
	}
	if ia > ic {
		ia, ic = ic, ia
	}
	b.edges[[2]int32{int32(ia), int32(ic)}] = struct{}{}
}

// Build freezes the builder into an immutable Graph.
func (b *Builder) Build() *Graph {
	g := &Graph{
		names:    append([]string(nil), b.names...),
		idByName: make(map[string]int, len(b.names)),
		adj:      make([][]int32, len(b.names)),
		numEdges: len(b.edges),
	}
	for name, id := range b.idByName {
		g.idByName[name] = id
	}
	for e := range b.edges {
		g.adj[e[0]] = append(g.adj[e[0]], e[1])
		g.adj[e[1]] = append(g.adj[e[1]], e[0])
	}
	for _, nb := range g.adj {
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
	}
	return g
}

// NumProteins returns the number of vertices.
func (g *Graph) NumProteins() int { return len(g.names) }

// NumEdges returns the number of undirected interactions.
func (g *Graph) NumEdges() int { return g.numEdges }

// Name returns the protein name for id.
func (g *Graph) Name(id int) string { return g.names[id] }

// ID looks up a protein by name.
func (g *Graph) ID(name string) (int, bool) {
	id, ok := g.idByName[name]
	return id, ok
}

// Neighbors returns the sorted neighbor IDs of protein id. The returned
// slice is owned by the graph and must not be modified.
func (g *Graph) Neighbors(id int) []int32 { return g.adj[id] }

// Degree returns the number of known interaction partners of protein id.
func (g *Graph) Degree(id int) int { return len(g.adj[id]) }

// HasEdge reports whether proteins a and b are known to interact.
func (g *Graph) HasEdge(a, b int) bool {
	nb := g.adj[a]
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= int32(b) })
	return i < len(nb) && nb[i] == int32(b)
}

// Edges calls fn once per undirected edge (a < b). Iteration stops early
// if fn returns false.
func (g *Graph) Edges(fn func(a, b int) bool) {
	for a, nb := range g.adj {
		for _, b := range nb {
			if int(b) > a {
				if !fn(a, int(b)) {
					return
				}
			}
		}
	}
}

// DegreeStats summarizes the degree distribution.
type DegreeStats struct {
	Min, Max int
	Mean     float64
	Isolated int // vertices with no interactions
}

// Stats computes degree statistics for the graph.
func (g *Graph) Stats() DegreeStats {
	if len(g.adj) == 0 {
		return DegreeStats{}
	}
	s := DegreeStats{Min: len(g.adj[0]), Max: len(g.adj[0])}
	total := 0
	for _, nb := range g.adj {
		d := len(nb)
		total += d
		if d < s.Min {
			s.Min = d
		}
		if d > s.Max {
			s.Max = d
		}
		if d == 0 {
			s.Isolated++
		}
	}
	s.Mean = float64(total) / float64(len(g.adj))
	return s
}

// WriteTSV serializes the graph as a BioGRID-style two-column TSV of
// interacting protein names, preceded by '#protein' comment lines listing
// every vertex in ID order. ReadTSV registers those before any edge, so
// vertex IDs — not just the vertex set — survive the round trip. That
// matters because pipe.New requires graph vertex i to be proteome entry i;
// a graph that came back with reshuffled IDs would no longer align with
// the FASTA file written alongside it. A name ReadTSV could not read back
// (see checkName) is an error, and nothing is written.
func (g *Graph) WriteTSV(w io.Writer) error {
	for _, name := range g.names {
		if err := checkName(name); err != nil {
			return fmt.Errorf("ppigraph: writing TSV: %w", err)
		}
	}
	bw := bufio.NewWriter(w)
	for _, name := range g.names {
		if _, err := fmt.Fprintf(bw, "#protein\t%s\n", name); err != nil {
			return err
		}
	}
	var err error
	g.Edges(func(a, b int) bool {
		_, err = fmt.Fprintf(bw, "%s\t%s\n", g.names[a], g.names[b])
		return err == nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// checkName reports a protein name the TSV format cannot carry: fields
// are split on whitespace and a line starting with '#' is a comment, so
// an empty name, one containing whitespace, or one starting with '#'
// would come back as another name or not at all.
func checkName(name string) error {
	switch {
	case name == "":
		return fmt.Errorf("empty protein name")
	case strings.HasPrefix(name, "#"):
		return fmt.Errorf("protein name %q starts with '#'", name)
	case strings.IndexFunc(name, unicode.IsSpace) >= 0:
		return fmt.Errorf("protein name %q contains whitespace", name)
	}
	return nil
}

// ReadTSV parses the format written by WriteTSV. Unknown '#' comments are
// skipped; '#protein' comments register isolated vertices. A name WriteTSV
// could not write back (one starting with '#') is an error, so every
// graph ReadTSV returns survives a WriteTSV/ReadTSV round trip.
func ReadTSV(r io.Reader) (*Graph, error) {
	b := NewBuilder()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		if strings.HasPrefix(text, "#") {
			if fields[0] != "#protein" || len(fields) != 2 {
				continue
			}
			fields = fields[1:]
		} else if len(fields) != 2 {
			return nil, fmt.Errorf("ppigraph: line %d: want 2 fields, got %d", line, len(fields))
		}
		for _, name := range fields {
			if err := checkName(name); err != nil {
				return nil, fmt.Errorf("ppigraph: line %d: %w", line, err)
			}
		}
		if len(fields) == 1 {
			b.AddProtein(fields[0])
		} else {
			b.AddEdge(fields[0], fields[1])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ppigraph: reading TSV: %w", err)
	}
	return b.Build(), nil
}

// SaveTSVFile writes the graph to a TSV file on disk.
func (g *Graph) SaveTSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteTSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadTSVFile reads a graph from a TSV file on disk.
func LoadTSVFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTSV(f)
}
