package core_test

import (
	"context"
	"regexp"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/evalbackend"
	"repro/internal/seq"
)

// countingPool is the in-process pool as a caller-supplied backend,
// counting the results it returns and how many of them are target-only.
type countingPool struct {
	*evalbackend.PoolBackend
	t                   *testing.T
	results, targetOnly int
}

func (c *countingPool) EvaluateAll(ctx context.Context, seqs []seq.Sequence) ([]cluster.Result, error) {
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
// at least 70 % of the candidates the pool evaluates come back
// target-only, their non-targets never scored. A run with a surrogate
// gets none: the surrogate trains on non-target scores.
func TestTargetFirstSkipsDeadCandidates(t *testing.T) {
	p := s40Fixture(t)
	var results, targetOnly int
	for client := int64(0); client < 2; client++ {
		for job := int64(1); job <= 4; job++ {
			c := runCounted(t, p, s40Options(1_000_000+client*100_000+job, true))
			results += c.results
			targetOnly += c.targetOnly
		}
	}
	share := float64(targetOnly) / float64(results)
	t.Logf("%d of %d evaluated candidates target-only (%.1f %%)", targetOnly, results, 100*share)
	if share < 0.70 {
		t.Errorf("%d of %d evaluated candidates target-only (%.1f %%), want at least 70 %%",
			targetOnly, results, 100*share)
	}

	opts := s40Options(deadSeed, true)
	opts.Surrogate = &evalbackend.SurrogateConfig{Warmup: 40}
	if c := runCounted(t, p, opts); c.targetOnly != 0 {
		t.Errorf("surrogate run: %d of %d results target-only, want none", c.targetOnly, c.results)
	}
}

// accountingFields are the journal fields that count how a generation's
// candidates were answered (cache, pool, window table); a job sharing a
// cache answers more of them from it without changing what it computes.
var accountingFields = regexp.MustCompile(`"(evaluated|cache_hits|wincache_hits|wincache_misses|delta_queries)":[0-9]+,?`)

func surrogateJournal(t *testing.T, p s40Problem, cache *core.FitnessCache) []string {
	t.Helper()
	opts := s40Options(liveSeed, true)
	opts.FitnessCache = cache
	opts.Surrogate = &evalbackend.SurrogateConfig{Warmup: 40}
	rec := designRun(t, p.problem(), opts)[0]
	for i, line := range rec.Journal {
		rec.Journal[i] = accountingFields.ReplaceAllString(line, "")
	}
	return rec.Journal
}

// TestTargetFirstSharedCacheSurrogate shares one fitness cache between a
// plain job, which stores target-only entries, and then a surrogate job
// on the same problem and seed, like two insipsd jobs. The surrogate job
// must miss those entries and train on full results: its journal equals
// that of the same job run alone.
func TestTargetFirstSharedCacheSurrogate(t *testing.T) {
	p := s40Fixture(t)
	shared := core.NewFitnessCache(0)
	plain := s40Options(liveSeed, true)
	plain.FitnessCache = shared
	if _, err := core.Design(p.eng, p.target, p.nonTargets, plain); err != nil {
		t.Fatal(err)
	}
	got := surrogateJournal(t, p, shared)
	want := surrogateJournal(t, p, core.NewFitnessCache(0))
	if len(got) != len(want) {
		t.Fatalf("%d journal lines, solo run has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\nshared cache: %s\nsolo:         %s", i, got[i], want[i])
		}
	}
}
