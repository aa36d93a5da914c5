package simindex

import (
	"hash/maphash"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

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
// are made of — is searched at most once per table. It is also the one
// copy of that database an engine holds: Profile assembles a protein's
// profile from its windows' lists.
//
// An engine's table starts empty, and each window's list is filled the
// first time a lookup or a Profile call reaches it: the caller searches the window with the
// rest of its misses, in runs, and hands the list to fill, which copies
// it into storage the table owns and publishes it atomically. Every
// caller computes the same list for a window, so when two race, the
// first to publish wins and the other's list is dropped. Reads take no
// lock and nothing is evicted.
//
// A window is named by the position of its first residue in res, the
// proteome's residues end to end (protein p's from ix.protOff[p]). The
// content index, built with the table, is an open-addressing hash set
// of the distinct natural windows: slots hold 1 + the position of each
// content's first occurrence (0 is empty), and a probe compares the key
// with res at that position, so no key is stored twice. lists[pos] is
// the list of the window at pos once filled, nil before. Published
// lists are shared read-only with every profile assembled from them and
// must never be mutated. A nil table is valid and misses without
// counting.
type WindowCache struct {
	hits   atomic.Int64
	misses atomic.Int64
	filled atomic.Int64
	ix     *Index

	res     string
	seed    maphash.Seed
	slots   []int32
	entries int
	lists   []atomic.Pointer[[]WinScore]

	mu    sync.Mutex   // serializes fill
	hdrs  [][]WinScore // free headers of fill's current header chunk
	store []WinScore   // free room of fill's current list chunk
}

// WindowCacheStats is a point-in-time snapshot of the table's use.
type WindowCacheStats struct {
	Hits    int64 // lookups of natural window content
	Misses  int64 // lookups of content no natural window has
	Entries int64 // distinct natural windows in the table
	Filled  int64 // windows whose list the table holds
}

// NewWindowCache builds the window table of the indexed proteome. With
// profiles nil the table starts empty and fills on first touch, as
// every engine's does. A non-nil profiles fills every window's list up
// front from profiles[p], protein p's profile (well-formed by
// FlatProfile.Check: the caller's to ensure). That is how tests put
// profiles of their choosing in a table: hand-written ones, to score a
// kernel shape, or per-protein searches, the reference a table filled
// on first touch must equal. The profiles are transposed from rows of
// proteins to lists per window, and visiting rows in ID order makes
// each list come out protein-ascending with the best score per
// protein, exactly as a fresh search returns it, so Profile(p) gives
// profiles[p] back (less any row without entries, which Check lets
// through).
func (ix *Index) NewWindowCache(profiles []FlatProfile) *WindowCache {
	var b strings.Builder
	b.Grow(int(ix.protOff[len(ix.proteins)]))
	for _, s := range ix.proteins {
		b.WriteString(s.Residues())
	}
	size := 1
	for size < 2*ix.totalWins {
		size <<= 1
	}
	c := &WindowCache{
		ix:    ix,
		res:   b.String(),
		seed:  maphash.MakeSeed(),
		slots: make([]int32, size),
		lists: make([]atomic.Pointer[[]WinScore], b.Len()),
	}
	w, mask := ix.cfg.Window, uint64(size-1)
	for p := range ix.proteins {
		for pos := ix.protOff[p]; pos < ix.protOff[p]+ix.winBase[p+1]-ix.winBase[p]; pos++ {
			key := c.res[pos : int(pos)+w]
			i := maphash.String(c.seed, key) & mask
			for c.slots[i] != 0 && c.res[c.slots[i]-1:int(c.slots[i]-1)+w] != key {
				i = (i + 1) & mask
			}
			if c.slots[i] == 0 {
				c.slots[i] = pos + 1
				c.entries++
			}
		}
	}
	if profiles == nil {
		return c
	}
	offs, arena := ix.transpose(profiles)
	hdrs := make([][]WinScore, ix.totalWins)
	for p := range ix.proteins {
		for g := ix.winBase[p]; g < ix.winBase[p+1]; g++ {
			if lo, hi := offs[g], offs[g+1]; hi > lo {
				hdrs[g] = arena[lo:hi:hi]
			}
			c.lists[ix.protOff[p]+g-ix.winBase[p]].Store(&hdrs[g])
		}
	}
	c.filled.Store(int64(ix.totalWins))
	return c
}

// transpose lays the per-protein profiles given to NewWindowCache out
// as per-window lists: window g's (winBase numbering) is
// arena[offs[g]:offs[g+1]].
func (ix *Index) transpose(profiles []FlatProfile) (offs []int32, arena []WinScore) {
	base := ix.winBase
	total := 0
	for _, prof := range profiles {
		total += len(prof.Pos)
	}
	offs = make([]int32, ix.totalWins+1)
	arena = make([]WinScore, total)
	// offs[g+1] counts window g's entries, then becomes the prefix sum
	// the fill advances as its cursor, leaving offs[g] at window g's end;
	// the shift after the fill moves every offset back to its start.
	for p, prof := range profiles {
		for _, pos := range prof.Pos {
			offs[base[p]+pos+1]++
		}
	}
	for g := 0; g < ix.totalWins; g++ {
		offs[g+1] += offs[g]
	}
	for p, prof := range profiles {
		for r, id := range prof.IDs {
			for j := prof.Offsets[r]; j < prof.Offsets[r+1]; j++ {
				g := base[p] + prof.Pos[j]
				arena[offs[g]] = WinScore{Protein: id, Score: prof.Score[j]}
				offs[g]++
			}
		}
	}
	copy(offs[1:], offs[:ix.totalWins])
	offs[0] = 0
	return offs, arena
}

// find returns the position of the first natural window with content
// key, or -1.
func (c *WindowCache) find(key string) int32 {
	w := c.ix.cfg.Window
	if len(key) != w {
		return -1
	}
	mask := uint64(len(c.slots) - 1)
	for i := maphash.String(c.seed, key) & mask; c.slots[i] != 0; i = (i + 1) & mask {
		if pos := c.slots[i] - 1; c.res[pos:int(pos)+w] == key {
			return pos
		}
	}
	return -1
}

// window returns the list of the window at pos, and whether it is
// filled.
func (c *WindowCache) window(pos int32) ([]WinScore, bool) {
	if l := c.lists[pos].Load(); l != nil {
		return *l, true
	}
	return nil, false
}

// Profile assembles indexed protein p's CSR profile from its windows'
// lists, first searching (in runs) and filling the windows not yet
// filled: SequenceSimilarity(Protein(p), 1), bit for bit, for a table
// that started empty, and profiles[p] for one built from profiles (less
// any row without entries). Each call builds a fresh profile; it is safe
// for concurrent use.
func (c *WindowCache) Profile(p int) FlatProfile {
	ix := c.ix
	b, nw := ix.protOff[p], int(ix.winBase[p+1]-ix.winBase[p])
	if nw == 0 {
		return FlatProfile{Offsets: []int32{0}}
	}
	sc := ix.getScratch()
	if cap(sc.perWin) < nw {
		sc.perWin = make([][]WinScore, nw)
	}
	perWin := sc.perWin[:nw]
	missing := sc.missing[:0]
	for i := range perWin {
		var ok bool
		if perWin[i], ok = c.window(b + int32(i)); !ok {
			missing = append(missing, int32(i))
		}
	}
	ix.searchWindowsInto(ix.proteins[p], missing, perWin, 1, false)
	c.fill(len(missing), func(j int) (int32, []WinScore) {
		return b + missing[j], perWin[missing[j]]
	})
	out := sc.asm.assemble(nw, func(i int) []WinScore { return perWin[i] })
	sc.missing = missing[:0]
	ix.putScratch(sc)
	return out
}

// resolve is the query paths' table read. For natural window content it
// counts a hit and returns the window's position pos, with its list when
// filled (filled true); a caller that finds it unfilled searches the
// window and hands the list to fill. Other content counts a miss and
// returns pos -1.
func (c *WindowCache) resolve(key string) (list []WinScore, pos int32, filled bool) {
	if c == nil {
		return nil, -1, false
	}
	if pos = c.find(key); pos < 0 {
		c.misses.Add(1)
		return nil, -1, false
	}
	c.hits.Add(1)
	list, filled = c.window(pos)
	return list, pos, filled
}

// peek is resolve without the counters, for windows the caller already
// holds in part: the list of the natural window with content key, when
// the table holds it.
func (c *WindowCache) peek(key string) ([]WinScore, bool) {
	if c == nil {
		return nil, false
	}
	if pos := c.find(key); pos >= 0 {
		return c.window(pos)
	}
	return nil, false
}

// fill publishes searched lists: entry j of n is the list of the window
// at pos (pos < 0 is not a natural window and is skipped). Under mu,
// each window still unfilled gets a copy of its list in the table's own
// storage, published with one atomic store; a window another caller
// filled first keeps its list (both are the same list).
func (c *WindowCache) fill(n int, entry func(j int) (pos int32, list []WinScore)) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for j := 0; j < n; j++ {
		pos, list := entry(j)
		if pos < 0 || c.lists[pos].Load() != nil {
			continue
		}
		c.lists[pos].Store(c.own(list))
		c.filled.Add(1)
	}
}

// fillChunk sizes the chunks fill carves lists and their headers from.
// Lists live as long as the table, so they are packed together instead
// of each in its own small allocation among the searches' short-lived
// ones, which would pin half-empty heap spans.
const fillChunk = 4096

// own copies list into the table's storage and returns its header
// (held in mu).
func (c *WindowCache) own(list []WinScore) *[]WinScore {
	if len(c.hdrs) == 0 {
		c.hdrs = make([][]WinScore, fillChunk/4)
	}
	h := &c.hdrs[0]
	c.hdrs = c.hdrs[1:]
	if n := len(list); n > 0 {
		if n > len(c.store) {
			c.store = make([]WinScore, max(n, fillChunk))
		}
		*h = c.store[:n:n]
		c.store = c.store[n:]
		copy(*h, list)
	}
	return h
}

// Get returns the table's search result for the given window content,
// searching and filling a natural window not yet filled. The second
// result distinguishes a natural window with no similar fragment
// (found, nil slice, as a fresh search returns it) from a window the
// table does not hold. It counts as resolve does.
func (c *WindowCache) Get(key string) ([]WinScore, bool) {
	list, pos, filled := c.resolve(key)
	if pos < 0 || filled {
		return list, pos >= 0
	}
	ix := c.ix
	p := sort.Search(len(ix.proteins), func(p int) bool { return ix.protOff[p+1] > pos })
	i := int(pos - ix.protOff[p])
	var out [1][]WinScore
	s := ix.getSearcher(false)
	s.searchRun(ix.indices[p], ix.proteins[p].Residues(), i, i, out[:])
	ix.putSearcher(s)
	c.fill(1, func(int) (int32, []WinScore) { return pos, out[0] })
	list, _ = c.window(pos)
	return list, true
}

// Stats snapshots the hit/miss counters and the table size. A nil table
// reports zeroes.
func (c *WindowCache) Stats() WindowCacheStats {
	if c == nil {
		return WindowCacheStats{}
	}
	return WindowCacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: int64(c.entries), Filled: c.filled.Load()}
}
