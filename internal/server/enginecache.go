package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/pipe"
	"repro/internal/ppigraph"
	"repro/internal/seq"
)

// engineCache holds pipe.Engine instances keyed by the persistence
// fingerprint (internal/pipe/persist.go): a hash of the proteome and the
// similarity-search configuration. Building an engine is the expensive
// preprocessing the paper performs offline, so a long-running service
// must do it at most once per distinct configuration. Lookups are
// single-flight: concurrent requests for the same fingerprint share one
// build instead of racing.
type engineCache struct {
	proteins []seq.Sequence
	graph    *ppigraph.Graph
	// dbPath, when set, is a persisted similarity database
	// (cmd/buildpipedb output) tried before building from scratch. It only
	// applies to configurations whose fingerprint matches the file's.
	dbPath       string
	buildThreads int
	metrics      *metrics

	mu      sync.Mutex
	entries map[uint64]*cacheEntry
}

type cacheEntry struct {
	once sync.Once
	// engine is published once the build succeeded, so preprocessCounts
	// can read it without waiting on a build still in flight.
	engine atomic.Pointer[pipe.Engine]
	err    error
	// fromDB records whether the engine was loaded from the persisted
	// database rather than built (surfaced on /healthz for operators).
	fromDB bool
}

func newEngineCache(proteins []seq.Sequence, graph *ppigraph.Graph, dbPath string, buildThreads int, m *metrics) *engineCache {
	return &engineCache{
		proteins:     proteins,
		graph:        graph,
		dbPath:       dbPath,
		buildThreads: buildThreads,
		metrics:      m,
		entries:      make(map[uint64]*cacheEntry),
	}
}

// get returns the engine for cfg, building (or loading from the
// persisted database) on first use. The second load with the same
// fingerprint is a cache hit and performs no index rebuild.
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
		eng, e.fromDB, e.err = c.build(cfg)
		e.engine.Store(eng)
	})
	if e.err != nil {
		// Leave the failed entry in place: retrying a deterministic build
		// would fail identically, and callers get the original error.
		return nil, e.err
	}
	return e.engine.Load(), nil
}

// build loads the engine from the persisted database when its
// fingerprint matches, and falls back to the full (parallel) build
// otherwise. A present-but-stale database is only an error for the exact
// configuration the operator pointed it at; other configurations simply
// never match and build fresh.
func (c *engineCache) build(cfg pipe.Config) (*pipe.Engine, bool, error) {
	if c.dbPath != "" {
		eng, err := pipe.NewFromDBFile(c.proteins, c.graph, cfg, c.dbPath)
		if err == nil {
			return eng, true, nil
		}
		if !errors.Is(err, pipe.ErrStaleDB) {
			return nil, false, fmt.Errorf("server: loading similarity database %s: %w", c.dbPath, err)
		}
	}
	eng, err := pipe.New(c.proteins, c.graph, cfg, c.buildThreads)
	return eng, false, err
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
