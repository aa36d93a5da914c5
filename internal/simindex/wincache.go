package simindex

import "sync/atomic"

// WinScore is one aggregated window-search result: a proteome protein
// with at least one window similar to the query window, carrying the
// best similarity score among them. It is the per-window slice of a
// profile — FlatProfile row r restricted to query window i.
type WinScore struct {
	Protein int32
	Score   int32
}

// WindowCache is the natural proteome's window table: the search result
// of every window of every indexed protein, keyed by the window's
// residue content. SimilarWindows is a pure function of those w
// residues, so a hit is exact, never approximate: a profile assembled
// from the table is bit-identical to a freshly searched one. It is the
// paper's offline database indexed by window content, so a candidate
// window copied from a natural protein — what a warm start's chimeras
// are made of — costs a lookup instead of a search.
//
// The table is built once from the database profiles (NewWindowCache)
// and never changes after: reads take no lock, nothing is inserted or
// evicted, and its size is the proteome's window count. Keys alias the
// protein residues; a key maps to the proteome-wide ID of the window's
// first occurrence (winBase numbering), and window g's result is
// arena[offs[g]:offs[g+1]] — the database profiles transposed into one
// arena — so no entry owns a copy. Results are shared read-only with
// every profile assembled from them and must never be mutated. A nil
// table is valid and misses without counting.
type WindowCache struct {
	hits   atomic.Int64
	misses atomic.Int64
	ids    map[string]int32
	offs   []int32
	arena  []WinScore
}

// WindowCacheStats is a point-in-time snapshot of the table's use.
type WindowCacheStats struct {
	Hits    int64 // lookups answered from the table
	Misses  int64 // lookups that fell through to a real search
	Entries int64 // distinct natural windows in the table
}

// NewWindowCache builds the window table of the indexed proteome from
// its profiles (profiles[p] is protein p's, checked with
// FlatProfile.Check). The profiles are transposed from rows of proteins
// to lists per window; visiting rows in ID order makes each list come
// out protein-ascending with the best score per protein, exactly as a
// fresh search returns it. Identical windows have identical results, so
// the first occurrence is the one a key maps to.
func (ix *Index) NewWindowCache(profiles []FlatProfile) *WindowCache {
	w, base := ix.cfg.Window, ix.winBase
	total := 0
	for _, prof := range profiles {
		total += len(prof.Pos)
	}
	c := &WindowCache{
		ids:   make(map[string]int32, ix.totalWins),
		offs:  make([]int32, ix.totalWins+1),
		arena: make([]WinScore, total),
	}
	// offs[g+1] counts window g's entries, then becomes the prefix sum
	// the fill advances as its cursor, leaving offs[g] at window g's end;
	// the shift after the fill moves every offset back to its start.
	for p, prof := range profiles {
		for _, pos := range prof.Pos {
			c.offs[base[p]+pos+1]++
		}
	}
	for g := 0; g < ix.totalWins; g++ {
		c.offs[g+1] += c.offs[g]
	}
	for p, prof := range profiles {
		for r, id := range prof.IDs {
			for j := prof.Offsets[r]; j < prof.Offsets[r+1]; j++ {
				g := base[p] + prof.Pos[j]
				c.arena[c.offs[g]] = WinScore{Protein: id, Score: prof.Score[j]}
				c.offs[g]++
			}
		}
	}
	copy(c.offs[1:], c.offs[:ix.totalWins])
	c.offs[0] = 0
	for p, s := range ix.proteins {
		res := s.Residues()
		for i := 0; i+w <= len(res); i++ {
			if _, dup := c.ids[res[i:i+w]]; !dup {
				c.ids[res[i:i+w]] = base[p] + int32(i)
			}
		}
	}
	return c
}

// Get returns the table's search result for the given window content.
// The second result distinguishes a natural window with no similar
// fragment (found, nil slice, as a fresh search returns it) from a
// window the table does not hold.
func (c *WindowCache) Get(key string) ([]WinScore, bool) {
	if c == nil {
		return nil, false
	}
	g, ok := c.ids[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	if lo, hi := c.offs[g], c.offs[g+1]; hi > lo {
		return c.arena[lo:hi:hi], true
	}
	return nil, true
}

// Stats snapshots the hit/miss counters and the table size. A nil table
// reports zeroes.
func (c *WindowCache) Stats() WindowCacheStats {
	if c == nil {
		return WindowCacheStats{}
	}
	return WindowCacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: int64(len(c.ids))}
}
