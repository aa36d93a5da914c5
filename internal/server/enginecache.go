package server

import (
	"sync"
	"sync/atomic"

	"repro/internal/pipe"
	"repro/internal/ppigraph"
	"repro/internal/seq"
)

// engineCache holds pipe.Engine instances keyed by pipe.Fingerprint: a
// hash of the proteome and the similarity-search configuration. An
// engine's window table and database entries fill as jobs read them, so
// a long-running service keeps one engine per distinct configuration.
// Lookups are single-flight: concurrent requests for the same
// fingerprint share one build instead of racing.
type engineCache struct {
	proteins []seq.Sequence
	graph    *ppigraph.Graph
	metrics  *metrics

	mu      sync.Mutex
	entries map[uint64]*cacheEntry
}

type cacheEntry struct {
	once sync.Once
	// engine is published once the build succeeded, so preprocessCounts
	// can read it without waiting on a build still in flight.
	engine atomic.Pointer[pipe.Engine]
	err    error
}

func newEngineCache(proteins []seq.Sequence, graph *ppigraph.Graph, m *metrics) *engineCache {
	return &engineCache{
		proteins: proteins,
		graph:    graph,
		metrics:  m,
		entries:  make(map[uint64]*cacheEntry),
	}
}

// get returns the engine for cfg, building it on first use. The second
// load with the same fingerprint is a cache hit and performs no index
// rebuild.
func (c *engineCache) get(cfg pipe.Config) (*pipe.Engine, error) {
	key := pipe.Fingerprint(c.proteins, cfg)
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
		c.metrics.cacheMisses.Add(1)
	} else {
		c.metrics.cacheHits.Add(1)
	}
	c.mu.Unlock()
	e.once.Do(func() {
		var eng *pipe.Engine
		eng, e.err = pipe.New(c.proteins, c.graph, cfg, 0)
		e.engine.Store(eng)
	})
	if e.err != nil {
		// Leave the failed entry in place: retrying a deterministic build
		// would fail identically, and callers get the original error.
		return nil, e.err
	}
	return e.engine.Load(), nil
}

// seed inserts a pre-built engine under its own fingerprint without
// touching the hit/miss counters (used by tests and embedders that
// already paid for the build).
func (c *engineCache) seed(eng *pipe.Engine) {
	e := &cacheEntry{}
	e.once.Do(func() { e.engine.Store(eng) })
	c.mu.Lock()
	c.entries[eng.Fingerprint()] = e
	c.mu.Unlock()
}

// size returns the number of resident entries (including in-flight
// builds).
func (c *engineCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// preprocessCounts sums the window-table hits and misses and the delta
// queries of every engine built so far: the candidate preprocessing of
// every job this process ran. Engines are never evicted, so the sums
// only grow.
func (c *engineCache) preprocessCounts() (hits, misses, deltas int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		if eng := e.engine.Load(); eng != nil {
			wc := eng.WindowCacheStats()
			dq, _ := eng.DeltaStats()
			hits, misses, deltas = hits+wc.Hits, misses+wc.Misses, deltas+dq
		}
	}
	return hits, misses, deltas
}
