package evalbackend

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
)

// DefaultFitnessCacheSize bounds a Designer's private memo cache when
// its options do not supply a shared one.
const DefaultFitnessCacheSize = 4096

// FitnessCache memoizes candidate evaluations: PIPE is deterministic, so
// a byte-identical sequence under the same engine and design problem
// always produces the same score profile. The GA's copy operator
// (PCopy) re-emits surviving candidates every generation, and converged
// populations are full of duplicates — each hit skips an entire
// preprocessing + proteome-scoring round trip (in-process or across the
// distributed cluster).
//
// Entries are keyed by a problem fingerprint (engine fingerprint,
// scoring configuration, interaction graph, target and non-target IDs —
// see core.Problem.Fingerprint) plus the candidate's residue bytes, so
// one cache can be shared by concurrent design jobs over different
// engines without cross-talk: a fingerprint change simply never
// matches. The cache is bounded with LRU eviction and safe for
// concurrent use. Stored values are raw cluster.Results (target and
// non-target PIPE scores); fitness derivation stays with the caller, so
// a hit reproduces the exact floats a fresh evaluation would.
//
// An entry may be target-only (cluster.Result.TargetOnly): it is served
// only to a target-first caller (cluster.WithTargetFirst). Any other
// caller misses it, and the full result it then evaluates replaces the
// entry; a target-only result never replaces a full one. A caller that
// reads non-target scores therefore never sees the zeros a target-only
// entry carries, whatever Designer runs filled the cache.
type FitnessCache struct {
	maxEntries int

	hits   atomic.Int64
	misses atomic.Int64

	mu      sync.Mutex
	entries map[fitnessKey]*list.Element
	lru     *list.List // front = most recently used
}

// fitnessKey identifies one (problem, candidate) evaluation. The residue
// bytes are hashed into the key and verified on the stored entry, so a
// hash collision degrades to a miss, never a wrong fitness.
type fitnessKey struct {
	problem uint64
	seqHash uint64
}

type fitnessEntry struct {
	key        fitnessKey
	residues   string
	target     float64
	nts        []float64
	targetOnly bool
}

// NewFitnessCache returns a cache bounded to maxEntries (<= 0 means
// DefaultFitnessCacheSize).
func NewFitnessCache(maxEntries int) *FitnessCache {
	if maxEntries <= 0 {
		maxEntries = DefaultFitnessCacheSize
	}
	return &FitnessCache{
		maxEntries: maxEntries,
		entries:    make(map[fitnessKey]*list.Element),
		lru:        list.New(),
	}
}

func hashResidues(residues string) uint64 {
	h := fnv.New64a()
	_, _ = io.WriteString(h, residues)
	return h.Sum64()
}

// lookup returns the memoized score profile of a candidate under the
// given problem fingerprint; a target-only entry is a hit only for a
// targetFirst caller. The returned NonTargetScores slice is shared with
// the cache; callers must treat it as read-only.
func (c *FitnessCache) lookup(problem uint64, residues string, targetFirst bool) (cluster.Result, bool) {
	key := fitnessKey{problem: problem, seqHash: hashResidues(residues)}
	c.mu.Lock()
	el, ok := c.entries[key]
	if ok {
		ent := el.Value.(*fitnessEntry)
		if ent.residues == residues && (targetFirst || !ent.targetOnly) {
			c.lru.MoveToFront(el)
			c.mu.Unlock()
			c.hits.Add(1)
			return cluster.Result{TargetScore: ent.target, NonTargetScores: ent.nts, TargetOnly: ent.targetOnly}, true
		}
	}
	c.mu.Unlock()
	c.misses.Add(1)
	return cluster.Result{}, false
}

// store memoizes one evaluation, evicting the least recently used entry
// when the bound is reached. A target-only result does not replace a
// full entry for the same candidate. The non-target scores are copied,
// so the caller keeps ownership of r's slice.
func (c *FitnessCache) store(problem uint64, residues string, r cluster.Result) {
	key := fitnessKey{problem: problem, seqHash: hashResidues(residues)}
	var nts []float64
	if len(r.NonTargetScores) > 0 {
		nts = make([]float64, len(r.NonTargetScores))
		copy(nts, r.NonTargetScores)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		ent := el.Value.(*fitnessEntry)
		if !r.TargetOnly || ent.residues != residues || ent.targetOnly {
			ent.residues = residues
			ent.target = r.TargetScore
			ent.nts = nts
			ent.targetOnly = r.TargetOnly
		}
		c.lru.MoveToFront(el)
		return
	}
	for c.lru.Len() >= c.maxEntries {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*fitnessEntry).key)
	}
	c.entries[key] = c.lru.PushFront(&fitnessEntry{key: key, residues: residues, target: r.TargetScore, nts: nts, targetOnly: r.TargetOnly})
}

// FitnessCacheStats is a point-in-time snapshot of cache effectiveness.
type FitnessCacheStats struct {
	Hits    int64
	Misses  int64
	Entries int
}

// Stats returns the cache's counters and current size.
func (c *FitnessCache) Stats() FitnessCacheStats {
	c.mu.Lock()
	n := c.lru.Len()
	c.mu.Unlock()
	return FitnessCacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: n}
}

// WritePrometheus renders the cache counters in Prometheus text format
// under the given metric prefix (e.g. "insipsd_fitness_cache").
func (c *FitnessCache) WritePrometheus(w io.Writer, prefix string) {
	st := c.Stats()
	fmt.Fprintf(w, "# HELP %s_hits_total Candidate evaluations served from the fitness memo cache.\n", prefix)
	fmt.Fprintf(w, "%s_hits_total %d\n", prefix, st.Hits)
	fmt.Fprintf(w, "# HELP %s_misses_total Candidate evaluations that required a scoring round trip.\n", prefix)
	fmt.Fprintf(w, "%s_misses_total %d\n", prefix, st.Misses)
	fmt.Fprintf(w, "# HELP %s_entries Memoized evaluations resident in the cache.\n", prefix)
	fmt.Fprintf(w, "%s_entries %d\n", prefix, st.Entries)
}
