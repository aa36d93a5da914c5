package core_test

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/evalbackend"
	"repro/internal/seq"
)

// countingPool is the in-process pool as a caller-supplied backend,
// counting the results it returns, how many of them are target-only,
// and the calls that arrive without the target-first mark.
type countingPool struct {
	*evalbackend.PoolBackend
	t                             *testing.T
	results, targetOnly, unmarked int
}

func (c *countingPool) EvaluateAll(ctx context.Context, seqs []seq.Sequence) ([]cluster.Result, error) {
	if !cluster.TargetFirstFrom(ctx) {
		c.unmarked++
	}
	results, err := c.PoolBackend.EvaluateAll(ctx, seqs)
	for _, r := range results {
		c.results++
		if r.TargetOnly {
			c.targetOnly++
			if r.TargetScore != 0 || r.NonTargetScores != nil {
				c.t.Errorf("target-only result carries scores: %+v", r)
			}
		}
	}
	return results, err
}

func runCounted(t *testing.T, p s40Problem, opts core.Options) *countingPool {
	t.Helper()
	pb, err := evalbackend.NewPool(p.eng, p.target, p.nonTargets, opts.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	counter := &countingPool{PoolBackend: pb, t: t}
	opts.Backend = counter
	if _, err := core.Design(p.eng, p.target, p.nonTargets, opts); err != nil {
		t.Fatal(err)
	}
	return counter
}

// TestTargetFirstSkipsDeadCandidates is the count gate of target-first
// evaluation: over the eight S40 jobs of the benchmark's first
// service_burst round at harness seed 1 (two clients, four jobs each),
// every call the Designer makes carries the target-first mark, and at
// least 70 % of the candidates the pool evaluates come back
// target-only, their non-targets never scored.
func TestTargetFirstSkipsDeadCandidates(t *testing.T) {
	p := s40Fixture(t)
	var results, targetOnly, unmarked int
	for client := int64(0); client < 2; client++ {
		for job := int64(1); job <= 4; job++ {
			c := runCounted(t, p, s40Options(1_000_000+client*100_000+job, true))
			results += c.results
			targetOnly += c.targetOnly
			unmarked += c.unmarked
		}
	}
	if unmarked != 0 {
		t.Errorf("%d evaluation calls without the target-first mark, want 0", unmarked)
	}
	share := float64(targetOnly) / float64(results)
	t.Logf("%d of %d evaluated candidates target-only (%.1f %%)", targetOnly, results, 100*share)
	if share < 0.70 {
		t.Errorf("%d of %d evaluated candidates target-only (%.1f %%), want at least 70 %%",
			targetOnly, results, 100*share)
	}
}
