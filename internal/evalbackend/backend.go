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
// closed, context cancelled).
//
// Implementations must be safe for use from a single evaluation loop.
type Backend interface {
	EvaluateAll(ctx context.Context, seqs []seq.Sequence) ([]cluster.Result, error)
	// Stats returns cumulative counters for the backend and everything
	// below it in the chain. Callers diff snapshots around a call to
	// attribute per-round accounting.
	Stats() Stats
	// Close releases resources the backend owns. Adapters over
	// externally managed resources (a netcluster.Master created by the
	// caller) do not close them.
	Close() error
}

// Stats are cumulative evaluation counters. Middleware layers each
// contribute the dimension they own, so a chain never double-counts:
// leaf adapters count Rounds/Tasks/Abandoned, WithFitnessCache counts
// CacheHits, WithMetrics accumulates EvalWallNS, WithRetry counts
// Retried/Recovered.
type Stats struct {
	// Rounds is the number of EvaluateAll calls that reached this
	// backend.
	Rounds int64
	// Tasks is the number of candidates actually scored (abandoned
	// tasks and cache hits are not counted here).
	Tasks int64
	// CacheHits is the number of candidates served from the fitness
	// memo cache without reaching a leaf backend.
	CacheHits int64
	// Abandoned is the number of per-task failures produced by leaves
	// (before any WithRetry recovery).
	Abandoned int64
	// Retried is the number of candidates WithRetry re-evaluated on its
	// fallback backend; Recovered is how many of those succeeded.
	Retried   int64
	Recovered int64
	// EvalWallNS is the wall-clock time (nanoseconds) WithMetrics
	// observed around real evaluation batches.
	EvalWallNS int64
	// Surrogate pre-scorer accounting, owned by WithSurrogate.
	// SurrogateEstimated counts candidates answered with a surrogate
	// estimate instead of a real evaluation (they never reached the
	// inner backend); SurrogateTrained counts the unique (sequence,
	// scores) pairs the online model absorbed; SurrogateErrMicro is the
	// summed absolute fitness error of the predictions made for trained
	// pairs, in 1e-6 fitness units (divide by SurrogateTrained for the
	// mean absolute error).
	SurrogateEstimated int64
	SurrogateTrained   int64
	SurrogateErrMicro  int64
	// Hedging accounting, owned by WithHedging. HedgesIssued counts
	// candidates duplicate-issued to a hedge backend, HedgedWins counts
	// hedged candidates whose duplicate supplied the result used, and
	// HedgedStale counts clean duplicate results dropped because the
	// primary copy already won — the exact double-count the journal
	// subtracts to keep `evaluated` conservation-true.
	HedgesIssued int64
	HedgedWins   int64
	HedgedStale  int64
}

// Add returns the field-wise sum of s and o.
func (s Stats) Add(o Stats) Stats {
	s.Rounds += o.Rounds
	s.Tasks += o.Tasks
	s.CacheHits += o.CacheHits
	s.Abandoned += o.Abandoned
	s.Retried += o.Retried
	s.Recovered += o.Recovered
	s.EvalWallNS += o.EvalWallNS
	s.SurrogateEstimated += o.SurrogateEstimated
	s.SurrogateTrained += o.SurrogateTrained
	s.SurrogateErrMicro += o.SurrogateErrMicro
	s.HedgesIssued += o.HedgesIssued
	s.HedgedWins += o.HedgedWins
	s.HedgedStale += o.HedgedStale
	return s
}

// counters is the atomic backing store each layer keeps for the Stats
// dimensions it owns.
type counters struct {
	rounds, tasks, cacheHits, abandoned, retried, recovered, evalWallNS atomic.Int64
	surrEstimated, surrTrained, surrErrMicro                            atomic.Int64
	hedgesIssued, hedgedWins, hedgedStale                               atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Rounds:             c.rounds.Load(),
		Tasks:              c.tasks.Load(),
		CacheHits:          c.cacheHits.Load(),
		Abandoned:          c.abandoned.Load(),
		Retried:            c.retried.Load(),
		Recovered:          c.recovered.Load(),
		EvalWallNS:         c.evalWallNS.Load(),
		SurrogateEstimated: c.surrEstimated.Load(),
		SurrogateTrained:   c.surrTrained.Load(),
		SurrogateErrMicro:  c.surrErrMicro.Load(),
		HedgesIssued:       c.hedgesIssued.Load(),
		HedgedWins:         c.hedgedWins.Load(),
		HedgedStale:        c.hedgedStale.Load(),
	}
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
	c.rounds.Add(1)
	c.tasks.Add(tasks)
	c.abandoned.Add(abandoned)
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

// Close implements Backend; the pool holds no resources at rest.
func (b *PoolBackend) Close() error { return nil }

// MasterBackend adapts a netcluster.Master. The master's lifecycle
// (listener, workers) belongs to whoever created it; Close here is a
// no-op.
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
		b.c.rounds.Add(1)
		return nil, err
	}
	b.c.observeResults(results)
	return results, nil
}

// Stats implements Backend.
func (b *MasterBackend) Stats() Stats { return b.c.snapshot() }

// Close implements Backend without closing the underlying master.
func (b *MasterBackend) Close() error { return nil }

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
		b.c.rounds.Add(1)
		return nil, err
	}
	if len(results) != len(seqs) {
		b.c.rounds.Add(1)
		return nil, fmt.Errorf("evalbackend: evaluate func returned %d results for %d candidates", len(results), len(seqs))
	}
	b.c.observeResults(results)
	return results, nil
}

// Stats implements Backend.
func (b *FuncBackend) Stats() Stats { return b.c.snapshot() }

// Close implements Backend.
func (b *FuncBackend) Close() error { return nil }
