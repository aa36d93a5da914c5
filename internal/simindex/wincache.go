package simindex

import (
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

// WindowCache memoizes window-similarity searches across queries and
// generations. SimilarWindows is a pure function of the w residues of
// the query window, so entries are keyed by exact window content and
// hits are exact, never approximate: a cached profile is bit-identical
// to a freshly searched one.
//
// The cache is sharded (key-hashed mutex shards, LRU eviction per
// shard) and safe for concurrent use. Each shard is a slab: entries
// live in a flat slot array indexed by an open-addressing table, with
// LRU links as slot indices. A full shard recycles the evicted slot's
// key buffer in place, so steady-state churn costs one value
// allocation per insert instead of an entry + key + map-cell chain the
// collector would otherwise chase on every cycle.
//
// Values are aggregated WinScore lists, sorted by protein ID; they are
// shared read-only between the cache and every profile assembled from
// them and must never be mutated. Eviction therefore never reuses a
// value's backing array — a concurrent reader may still hold it.
//
// The configured size is a ceiling, not a reservation. A fresh cache
// admits entries up to the ceiling while its owner seeds it; Seal then
// pins what is resident as the floor and the bound follows the traffic
// instead: windowBoundFactor x the windows of the largest batch looked
// up so far, never below the floor, never above the ceiling. A cache
// sized for a population of 1000 therefore costs a population of 200
// only what that population can reuse.
type WindowCache struct {
	hits    atomic.Int64
	misses  atomic.Int64
	evicted atomic.Int64

	ceiling int          // max entries per shard, from NewWindowCache
	bound   atomic.Int64 // live per-shard bound above the shard's floor
	shards  [wcShards]wcShard
}

const wcShards = 16

// windowBoundFactor sizes a sealed cache from its traffic: the bound is
// this many times the distinct windows of the largest batch seen. Picked
// from the sweep in EXPERIMENTS.md ("Window-cache bound").
const windowBoundFactor = 4

// wcShard is one slab: slots hold the entries, table open-addresses
// them by key hash (value = slot index + 1; 0 = empty), and head/tail
// thread the LRU order through slot indices (-1 = none).
type wcShard struct {
	mu         sync.Mutex
	table      []int32
	mask       uint32
	slots      []wcSlot
	head, tail int32
	n          int
	floor      int // entries resident at Seal; the bound never drops below
}

type wcSlot struct {
	key        []byte
	val        []WinScore
	hash       uint32
	prev, next int32
}

// WindowCacheStats is a point-in-time snapshot of cache effectiveness.
type WindowCacheStats struct {
	Hits    int64 // lookups answered from cache
	Misses  int64 // lookups that fell through to a real search
	Evicted int64 // entries dropped by the LRU bound
	Entries int64 // entries currently resident
	Bound   int64 // entries the cache may currently hold
}

// wcInitialTable is a shard's starting table size; tables double as
// entries arrive, so an idle ceiling reserves nothing.
const wcInitialTable = 16

// NewWindowCache returns a cache that never holds more than roughly the
// given number of window entries (rounded up to a multiple of the shard
// count), or nil when entries <= 0 — a nil *WindowCache is valid and
// disables caching everywhere one is accepted.
func NewWindowCache(entries int) *WindowCache {
	if entries <= 0 {
		return nil
	}
	c := &WindowCache{ceiling: (entries + wcShards - 1) / wcShards}
	c.bound.Store(int64(c.ceiling))
	for i := range c.shards {
		c.shards[i].table = make([]int32, wcInitialTable)
		c.shards[i].mask = wcInitialTable - 1
		c.shards[i].head, c.shards[i].tail = -1, -1
	}
	return c
}

// Seal ends the seeding phase: what each shard holds now becomes its
// floor, and the bound above it starts from zero and follows
// observeBatch. Nothing is evicted by sealing.
func (c *WindowCache) Seal() {
	if c == nil {
		return
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.floor = s.n
		s.mu.Unlock()
	}
	c.bound.Store(0)
}

// observeBatch tells the cache a batch of n distinct windows is being
// looked up, raising the bound to windowBoundFactor*n entries (capped
// at the ceiling). The bound never shrinks, so before Seal — bound at
// the ceiling — this is a no-op.
func (c *WindowCache) observeBatch(n int) {
	if c == nil {
		return
	}
	want := int64(windowBoundFactor*n+wcShards-1) / wcShards
	if want > int64(c.ceiling) {
		want = int64(c.ceiling)
	}
	for {
		cur := c.bound.Load()
		if want <= cur || c.bound.CompareAndSwap(cur, want) {
			return
		}
	}
}

// limit is the shard's current entry bound (shard lock held): at least
// one, so a sealed shard that was never seeded can still recycle.
func (s *wcShard) limit(c *WindowCache) int {
	return max(s.floor, int(c.bound.Load()), 1)
}

// wcHash is FNV-1a over 4-byte words, folded to 32 bits; the low bits
// pick the shard and the full value seeds the shard's probe sequence.
// Word-at-a-time quarters the serial multiply chain on the 20-byte
// window keys this cache sees millions of times per run.
func wcHash(key string) uint32 {
	h := uint64(14695981039346656037)
	i := 0
	for ; i+4 <= len(key); i += 4 {
		c := uint64(key[i]) | uint64(key[i+1])<<8 | uint64(key[i+2])<<16 | uint64(key[i+3])<<24
		h = (h ^ c) * 1099511628211
	}
	for ; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return uint32(h ^ h>>32)
}

// lookup probes for key, returning the slot index or -1.
func (s *wcShard) lookup(key string, h uint32) int32 {
	i := h & s.mask
	for {
		t := s.table[i]
		if t == 0 {
			return -1
		}
		sl := &s.slots[t-1]
		if sl.hash == h && string(sl.key) == key {
			return t - 1
		}
		i = (i + 1) & s.mask
	}
}

// Get returns the cached search result for the given window content.
// The second result distinguishes a cached empty hit list (found, nil
// slice) from a miss. Nil receivers always miss without counting.
func (c *WindowCache) Get(key string) ([]WinScore, bool) {
	if c == nil {
		return nil, false
	}
	h := wcHash(key)
	s := &c.shards[h%wcShards]
	s.mu.Lock()
	si := s.lookup(key, h)
	if si < 0 {
		s.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	s.moveToFront(si)
	v := s.slots[si].val
	s.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// Put stores a search result under the window content key. Both key and
// value are copied into cache-owned storage: callers may hand in
// substrings of candidate sequences and subslices of searcher arenas
// without the cache pinning those larger allocations for the life of
// the entry (long-lived engines churn through millions of candidate
// windows; retaining caller storage would grow the live heap far past
// the entry bound). Storing an already-present key only refreshes
// recency — exact keys imply identical values.
func (c *WindowCache) Put(key string, val []WinScore) {
	if c == nil {
		return
	}
	h := wcHash(key)
	s := &c.shards[h%wcShards]
	s.mu.Lock()
	if si := s.lookup(key, h); si >= 0 {
		s.moveToFront(si)
		s.mu.Unlock()
		return
	}
	var si int32
	var dropped int64
	if s.n < s.limit(c) {
		if s.n == len(s.slots) {
			s.slots = append(s.slots, wcSlot{})
		}
		si = int32(s.n)
		s.n++
		if 2*s.n > len(s.table) { // at most half full keeps probe chains short
			s.growTable()
		}
	} else {
		// Recycle the LRU slot: its key buffer is reused in place, its
		// value is released to any readers still holding it.
		si = s.tail
		s.unlink(si)
		s.tableDelete(si)
		dropped = 1
	}
	sl := &s.slots[si]
	sl.key = append(sl.key[:0], key...)
	sl.hash = h
	sl.val = nil
	if len(val) > 0 {
		sl.val = append(make([]WinScore, 0, len(val)), val...)
	}
	s.tableInsert(h, si)
	s.pushFront(si)
	s.mu.Unlock()
	if dropped > 0 {
		c.evicted.Add(dropped)
	}
}

// Stats snapshots the hit/miss/eviction counters and the resident size.
// A nil receiver reports zeroes.
func (c *WindowCache) Stats() WindowCacheStats {
	if c == nil {
		return WindowCacheStats{}
	}
	st := WindowCacheStats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Evicted: c.evicted.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += int64(s.n)
		st.Bound += int64(s.limit(c))
		s.mu.Unlock()
	}
	return st
}

// --- open-addressing table (shard lock held) -------------------------

func (s *wcShard) tableInsert(h uint32, si int32) {
	i := h & s.mask
	for s.table[i] != 0 {
		i = (i + 1) & s.mask
	}
	s.table[i] = si + 1
}

// growTable doubles the table and re-inserts every slot but the newest,
// which Put inserts once its hash is set. Slots are dense (a full shard
// recycles in place), so the first n-1 are exactly the indexed entries.
func (s *wcShard) growTable() {
	s.table = make([]int32, 2*len(s.table))
	s.mask = uint32(len(s.table) - 1)
	for si := 0; si < s.n-1; si++ {
		s.tableInsert(s.slots[si].hash, int32(si))
	}
}

// tableDelete removes slot si from the table, then back-shifts the
// probe chain so linear probing never needs tombstones.
func (s *wcShard) tableDelete(si int32) {
	mask := s.mask
	i := s.slots[si].hash & mask
	for s.table[i] != si+1 {
		i = (i + 1) & mask
	}
	s.table[i] = 0
	// Back-shift: any later entry in the probe chain whose home
	// position is cyclically at or before the hole moves into it.
	j := i
	for {
		j = (j + 1) & mask
		e := s.table[j]
		if e == 0 {
			return
		}
		home := s.slots[e-1].hash & mask
		var movable bool
		if home <= j {
			movable = home <= i && i < j
		} else { // probe chain wrapped past the end of the table
			movable = i >= home || i < j
		}
		if movable {
			s.table[i] = e
			s.table[j] = 0
			i = j
		}
	}
}

// --- intrusive LRU list over slot indices (shard lock held) ----------

func (s *wcShard) pushFront(si int32) {
	sl := &s.slots[si]
	sl.prev = -1
	sl.next = s.head
	if s.head >= 0 {
		s.slots[s.head].prev = si
	}
	s.head = si
	if s.tail < 0 {
		s.tail = si
	}
}

func (s *wcShard) unlink(si int32) {
	sl := &s.slots[si]
	if sl.prev >= 0 {
		s.slots[sl.prev].next = sl.next
	} else {
		s.head = sl.next
	}
	if sl.next >= 0 {
		s.slots[sl.next].prev = sl.prev
	} else {
		s.tail = sl.prev
	}
	sl.prev, sl.next = -1, -1
}

func (s *wcShard) moveToFront(si int32) {
	if s.head == si {
		return
	}
	s.unlink(si)
	s.pushFront(si)
}
