// Package evalbackend unifies the repo's fitness-evaluation paths behind
// one context-aware interface. The paper runs a single master/worker
// protocol at every scale (Algorithms 1 & 2 and the multi-rack sketch of
// §3.2); this package is that idea in code: the in-process pool and a
// distributed netcluster master both satisfy Backend — one master drives
// one pool, and only racks (islands) multiply — and the cross-cutting
// concerns the Designer needs — fitness memoization, metrics/tracing,
// retry of abandoned tasks on a fallback — are composable middleware
// layered on top of either.
//
// The canonical chain built by core.NewDesigner is
//
//	WithFitnessCache( WithMetrics( <leaf backend> ) )
//
// cache outermost so hits skip both the timing span and the evaluation;
// the metrics layer therefore times exactly the candidates that reach
// real scoring, preserving the journal semantics of the pre-refactor
// inline implementation.
package evalbackend

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/netcluster"
	"repro/internal/pipe"
	"repro/internal/seq"
)

// Backend evaluates one generation's candidates against the design
// problem it was built for and returns one cluster.Result per candidate,
// indexed like seqs. A Result with Err set is an abandoned task (the
// backend gave up on that candidate — e.g. netcluster quarantine after
// MaxAttempts); callers score it as a dead end rather than sinking the
// round. A call-level error means the whole batch failed (backend
// closed, context cancelled). Every core.Designer call carries
// cluster.WithTargetFirst, so it may get target-only results (fitness 0,
// no non-target scores) from either leaf: an in-process pool, or a
// netcluster master, which carries the mark to its workers' pools.
//
// Implementations must be safe for use from a single evaluation loop.
type Backend interface {
	EvaluateAll(ctx context.Context, seqs []seq.Sequence) ([]cluster.Result, error)
	// Stats returns cumulative counters for the backend and everything
	// below it in the chain. Callers diff snapshots around a call to
	// attribute per-round accounting.
	Stats() Stats
}

// Counter names one cumulative evaluation counter. Each is owned by one
// layer of the chain, the only code that increments it, so the sum of
// the layers' counters never double-counts. A new counter is one line
// here plus its increment site.
type Counter int

const (
	Rounds     Counter = iota // leaf: EvaluateAll calls that reached the backend
	Tasks                     // leaf: candidates actually scored (not abandoned, not cache hits)
	Abandoned                 // leaf: per-task failures, before any WithRetry recovery
	CacheHits                 // WithFitnessCache: candidates served from the memo without reaching a leaf
	EvalWallNS                // WithMetrics: wall time (ns) around real evaluation batches
	Retried                   // WithRetry: candidates re-evaluated on the fallback
	Recovered                 // WithRetry: re-evaluated candidates that came back clean
	numCounters
)

// Stats are cumulative evaluation counters, indexed by Counter.
type Stats [numCounters]int64

// Add returns the counter-wise sum of s and o.
func (s Stats) Add(o Stats) Stats {
	for i := range s {
		s[i] += o[i]
	}
	return s
}

// Sub returns the counter-wise difference s - o: the activity between
// two snapshots.
func (s Stats) Sub(o Stats) Stats {
	for i := range s {
		s[i] -= o[i]
	}
	return s
}

// counters is the atomic backing store each layer keeps for the
// counters it owns.
type counters [numCounters]atomic.Int64

func (c *counters) snapshot() (s Stats) {
	for i := range c {
		s[i] = c[i].Load()
	}
	return s
}

// observeResults tallies a completed round's results into the leaf
// counters: clean results as Tasks, per-task failures as Abandoned.
func (c *counters) observeResults(results []cluster.Result) {
	tasks, abandoned := int64(0), int64(0)
	for _, r := range results {
		if r.Err != nil {
			abandoned++
		} else {
			tasks++
		}
	}
	c[Rounds].Add(1)
	c[Tasks].Add(tasks)
	c[Abandoned].Add(abandoned)
}

// PoolBackend adapts the in-process cluster.Pool.
type PoolBackend struct {
	pool *cluster.Pool
	c    counters
}

// NewPool builds an in-process pool backend for the given problem,
// validating the IDs exactly like cluster.New.
func NewPool(engine *pipe.Engine, targetID int, nonTargetIDs []int, cfg cluster.Config) (*PoolBackend, error) {
	pool, err := cluster.New(engine, targetID, nonTargetIDs, cfg)
	if err != nil {
		return nil, err
	}
	return &PoolBackend{pool: pool}, nil
}

// WrapPool adapts an existing pool.
func WrapPool(pool *cluster.Pool) *PoolBackend {
	return &PoolBackend{pool: pool}
}

// EvaluateAll scores seqs on the in-process pool. Cancellation is
// observed at call entry only: an in-flight in-process batch is bounded
// by the pool's own makespan, so the round is allowed to finish. The
// context is forwarded so generation ancestry attached upstream
// (cluster.WithParentHints) reaches the pool's batched preprocessing.
func (b *PoolBackend) EvaluateAll(ctx context.Context, seqs []seq.Sequence) ([]cluster.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	results := b.pool.EvaluateAllContext(ctx, seqs)
	b.c.observeResults(results)
	return results, nil
}

// Stats implements Backend.
func (b *PoolBackend) Stats() Stats { return b.c.snapshot() }

// MasterBackend adapts a netcluster.Master. The master's lifecycle
// (listener, workers) belongs to whoever created it.
type MasterBackend struct {
	m *netcluster.Master
	c counters
}

// NewMaster adapts a running distributed master.
func NewMaster(m *netcluster.Master) *MasterBackend {
	return &MasterBackend{m: m}
}

// EvaluateAll dispatches seqs to the distributed workers, honouring ctx
// for prompt mid-round cancellation and forwarding the generation
// ancestry attached to it (cluster.WithParentHints), which the master
// sends along with each candidate. Quarantined tasks come back as
// per-task netcluster.ErrTaskAbandoned results.
func (b *MasterBackend) EvaluateAll(ctx context.Context, seqs []seq.Sequence) ([]cluster.Result, error) {
	results, err := b.m.EvaluateAllContext(ctx, seqs)
	if err != nil {
		b.c[Rounds].Add(1)
		return nil, err
	}
	b.c.observeResults(results)
	return results, nil
}

// Stats implements Backend.
func (b *MasterBackend) Stats() Stats { return b.c.snapshot() }

// FuncBackend adapts a bare evaluation function: the smallest leaf
// backend, for callers (and tests) that score candidates with a closure.
type FuncBackend struct {
	fn func(seqs []seq.Sequence) ([]cluster.Result, error)
	c  counters
}

// Func wraps fn as a Backend. The function must return one Result per
// candidate; a wrong-length return surfaces as a call-level error
// before any caller indexes into it.
func Func(fn func(seqs []seq.Sequence) ([]cluster.Result, error)) *FuncBackend {
	return &FuncBackend{fn: fn}
}

// EvaluateAll implements Backend. Cancellation is observed at call
// entry; the wrapped function has no context to thread it through.
func (b *FuncBackend) EvaluateAll(ctx context.Context, seqs []seq.Sequence) ([]cluster.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	results, err := b.fn(seqs)
	if err != nil {
		b.c[Rounds].Add(1)
		return nil, err
	}
	if len(results) != len(seqs) {
		b.c[Rounds].Add(1)
		return nil, fmt.Errorf("evalbackend: evaluate func returned %d results for %d candidates", len(results), len(seqs))
	}
	b.c.observeResults(results)
	return results, nil
}

// Stats implements Backend.
func (b *FuncBackend) Stats() Stats { return b.c.snapshot() }
