package evalbackend

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/seq"
)

// cacheBackend serves memoized candidates from a FitnessCache and
// forwards only the misses to the inner backend.
type cacheBackend struct {
	inner   Backend
	cache   *FitnessCache
	problem uint64
	c       counters
}

// WithFitnessCache layers fitness memoization over inner. Hits are
// served without touching inner at all (no span, no wall time); misses
// are evaluated as one sub-batch and the clean results stored. Results
// with Err set (abandoned tasks) are never stored — abandonment is not
// deterministic — and can therefore never be served as hits. The
// middleware's CacheHits counter is per-chain, so runs sharing one
// cache still account their own hits. problem is the
// core.ProblemFingerprint namespace keying this chain's entries. A nil
// cache returns inner unchanged.
func WithFitnessCache(inner Backend, cache *FitnessCache, problem uint64) Backend {
	if cache == nil {
		return inner
	}
	return &cacheBackend{inner: inner, cache: cache, problem: problem}
}

func (b *cacheBackend) EvaluateAll(ctx context.Context, seqs []seq.Sequence) ([]cluster.Result, error) {
	out := make([]cluster.Result, len(seqs))
	missIdx := make([]int, 0, len(seqs))
	targetFirst := cluster.TargetFirstFrom(ctx)
	for i, s := range seqs {
		if r, ok := b.cache.lookup(b.problem, s.Residues(), targetFirst); ok {
			r.Index = i
			out[i] = r
		} else {
			missIdx = append(missIdx, i)
		}
	}
	b.c.cacheHits.Add(int64(len(seqs) - len(missIdx)))
	if len(missIdx) == 0 {
		return out, nil
	}
	var missSeqs []seq.Sequence
	if len(missIdx) == len(seqs) {
		missSeqs = seqs
	} else {
		missSeqs = make([]seq.Sequence, len(missIdx))
		for k, i := range missIdx {
			missSeqs[k] = seqs[i]
		}
	}
	results, err := b.inner.EvaluateAll(ctx, missSeqs)
	if err != nil {
		return nil, err
	}
	if len(results) != len(missSeqs) {
		return nil, fmt.Errorf("evalbackend: backend returned %d results for %d candidates", len(results), len(missSeqs))
	}
	for k, i := range missIdx {
		r := results[k]
		r.Index = i
		out[i] = r
		if r.Err == nil {
			b.cache.store(b.problem, seqs[i].Residues(), r)
		}
	}
	return out, nil
}

func (b *cacheBackend) Stats() Stats { return b.c.snapshot().Add(b.inner.Stats()) }

func (b *cacheBackend) Close() error { return b.inner.Close() }

// metricsBackend wraps real evaluation batches in a logger span and a
// StageEval timing observation.
type metricsBackend struct {
	inner   Backend
	logger  *obs.Logger
	metrics *obs.Registry
	c       counters
}

// WithMetrics layers observability over inner: each EvaluateAll becomes
// an "evaluation batch" span on logger and a StageEval observation on
// metrics, and the wall time accumulates into Stats().EvalWallNS (the
// value the Designer diffs into the journal's eval_ms). Both logger and
// metrics are nil-safe, so the middleware is cheap to install
// unconditionally. Failed batches contribute no wall time, matching the
// pre-refactor inline accounting.
func WithMetrics(inner Backend, logger *obs.Logger, metrics *obs.Registry) Backend {
	return &metricsBackend{inner: inner, logger: logger, metrics: metrics}
}

func (b *metricsBackend) EvaluateAll(ctx context.Context, seqs []seq.Sequence) ([]cluster.Result, error) {
	end := b.logger.Span("evaluation batch", "candidates", len(seqs))
	start := time.Now()
	results, err := b.inner.EvaluateAll(ctx, seqs)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	b.c.evalWallNS.Add(int64(wall))
	b.metrics.Observe(obs.StageEval, wall)
	end()
	return results, nil
}

func (b *metricsBackend) Stats() Stats { return b.c.snapshot().Add(b.inner.Stats()) }

func (b *metricsBackend) Close() error { return b.inner.Close() }

// retryBackend re-evaluates failures on a fallback backend.
type retryBackend struct {
	primary  Backend
	fallback Backend
	logger   *obs.Logger
	c        counters
}

// WithRetry layers failure recovery over primary: per-task failures
// (abandoned tasks) are re-evaluated as one batch on
// fallback and the recoveries spliced into the merged results, and a
// call-level primary failure — other than context cancellation — fails
// the whole batch over to fallback. The typical composition is a
// netcluster master as primary with a local pool as fallback
// (cmd/insips -fallback-local): a quarantined candidate then costs one
// local re-score instead of a zero-fitness generation. Because PIPE
// scoring is deterministic across backends, a recovered score is
// bit-identical to what the primary would have produced.
func WithRetry(primary, fallback Backend, logger *obs.Logger) Backend {
	return &retryBackend{primary: primary, fallback: fallback, logger: logger}
}

func (b *retryBackend) EvaluateAll(ctx context.Context, seqs []seq.Sequence) ([]cluster.Result, error) {
	results, err := b.primary.EvaluateAll(ctx, seqs)
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		b.logger.Warn("primary evaluation backend failed; retrying batch on fallback",
			"candidates", len(seqs), "err", err)
		b.c.retried.Add(int64(len(seqs)))
		results, err = b.fallback.EvaluateAll(ctx, seqs)
		if err != nil {
			return nil, err
		}
		clean := int64(0)
		for _, r := range results {
			if r.Err == nil {
				clean++
			}
		}
		b.c.recovered.Add(clean)
		return results, nil
	}
	failedIdx := make([]int, 0)
	for i, r := range results {
		if r.Err != nil {
			failedIdx = append(failedIdx, i)
		}
	}
	if len(failedIdx) == 0 {
		return results, nil
	}
	b.logger.Warn("re-evaluating abandoned tasks on fallback backend",
		"abandoned", len(failedIdx), "candidates", len(seqs))
	b.c.retried.Add(int64(len(failedIdx)))
	sub := make([]seq.Sequence, len(failedIdx))
	for k, i := range failedIdx {
		sub[k] = seqs[i]
	}
	fres, ferr := b.fallback.EvaluateAll(ctx, sub)
	if ferr != nil || len(fres) != len(failedIdx) {
		// The fallback failed too; keep the degraded results — callers
		// already handle per-task errors.
		b.logger.Warn("fallback evaluation failed; keeping abandoned results", "err", ferr)
		return results, nil
	}
	recovered := int64(0)
	for k, i := range failedIdx {
		if fres[k].Err != nil {
			continue
		}
		r := fres[k]
		r.Index = i
		results[i] = r
		recovered++
	}
	b.c.recovered.Add(recovered)
	return results, nil
}

func (b *retryBackend) Stats() Stats {
	return b.c.snapshot().Add(b.primary.Stats()).Add(b.fallback.Stats())
}

func (b *retryBackend) Close() error {
	err := b.primary.Close()
	if ferr := b.fallback.Close(); ferr != nil && err == nil {
		err = ferr
	}
	return err
}
