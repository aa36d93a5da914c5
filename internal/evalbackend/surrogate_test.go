package evalbackend

import (
	"context"
	"errors"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/seq"
)

// synthScore is a deterministic stand-in for a PIPE evaluation: scores
// derived from a hash of the residues, with two non-target scores so the
// estimate-backfill path exercises its max/mean reconstruction.
func synthScore(residues string) cluster.Result {
	h := fnv.New64a()
	h.Write([]byte(residues))
	v := h.Sum64()
	target := float64(v%1000) / 999.0
	nt1 := float64((v/1000)%1000) / 999.0 * 0.5
	return cluster.Result{TargetScore: target, NonTargetScores: []float64{nt1, nt1 / 2}}
}

// synthLeaf counts the residues that reach it — the ground truth for
// which candidates the surrogate forwarded.
func synthLeaf(evaluated *map[string]int) Backend {
	return Func(func(s []seq.Sequence) ([]cluster.Result, error) {
		out := make([]cluster.Result, len(s))
		for i, sq := range s {
			(*evaluated)[sq.Residues()]++
			out[i] = synthScore(sq.Residues())
			out[i].Index = i
		}
		return out, nil
	})
}

func fitnessOf(r cluster.Result) float64 {
	max := 0.0
	for _, s := range r.NonTargetScores {
		if s > max {
			max = s
		}
	}
	return (1 - max) * r.TargetScore
}

func TestWithSurrogateWarmupForwardsEverything(t *testing.T) {
	evaluated := map[string]int{}
	b := WithSurrogate(synthLeaf(&evaluated), SurrogateConfig{Warmup: 1000, Seed: 1})
	for round := 0; round < 2; round++ {
		seqs := candidates(10, 80, int64(100+round))
		got, err := b.EvaluateAll(context.Background(), seqs)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range got {
			want := synthScore(seqs[i].Residues())
			want.Index = i
			if !reflect.DeepEqual(r, want) {
				t.Fatalf("warmup round altered result %d: %+v vs %+v", i, r, want)
			}
		}
	}
	if len(evaluated) != 20 {
		t.Fatalf("%d unique candidates reached the leaf, want all 20", len(evaluated))
	}
	st := b.Stats()
	if st[SurrogateEstimated] != 0 {
		t.Fatalf("warmup rounds produced estimates: %+v", st)
	}
	if st[SurrogateTrained] != 20 {
		t.Fatalf("trained %d, want 20: %+v", st[SurrogateTrained], st)
	}
}

func TestWithSurrogateFiltersAndCapsEstimates(t *testing.T) {
	evaluated := map[string]int{}
	b := WithSurrogate(synthLeaf(&evaluated), SurrogateConfig{
		Warmup: 10, TopK: 0.1, Explore: 0.05, Seed: 7,
	})
	// Round 1 fills the warmup quota.
	if _, err := b.EvaluateAll(context.Background(), candidates(10, 80, 1)); err != nil {
		t.Fatal(err)
	}
	pre := b.Stats()

	seqs := candidates(40, 80, 2)
	got, err := b.EvaluateAll(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	wantForward := 6 // round(0.1*40) + round(0.05*40)
	if est := st[SurrogateEstimated] - pre[SurrogateEstimated]; est != int64(40-wantForward) {
		t.Fatalf("estimated %d of 40, want %d", est, 40-wantForward)
	}
	if trained := st[SurrogateTrained] - pre[SurrogateTrained]; trained != int64(wantForward) {
		t.Fatalf("trained %d, want the %d forwarded", trained, wantForward)
	}

	// Forwarded candidates carry real scores; the rest are estimates
	// strictly below the round's best real fitness, shaped like real
	// results (two non-target scores).
	bestReal, forwarded := 0.0, 0
	for i, r := range got {
		if r.Index != i || r.Err != nil {
			t.Fatalf("result %d malformed: %+v", i, r)
		}
		if evaluated[seqs[i].Residues()] > 0 {
			forwarded++
			want := synthScore(seqs[i].Residues())
			want.Index = i
			if !reflect.DeepEqual(r, want) {
				t.Fatalf("forwarded result %d not bit-identical: %+v vs %+v", i, r, want)
			}
			if f := fitnessOf(r); f > bestReal {
				bestReal = f
			}
		}
	}
	if forwarded != wantForward {
		t.Fatalf("forwarded %d, want %d", forwarded, wantForward)
	}
	for i, r := range got {
		if evaluated[seqs[i].Residues()] > 0 {
			continue
		}
		if len(r.NonTargetScores) != 2 {
			t.Fatalf("estimate %d has %d non-target scores, want 2", i, len(r.NonTargetScores))
		}
		if f := fitnessOf(r); f >= bestReal {
			t.Fatalf("estimate %d fitness %v not below best real %v — an estimated candidate could win the generation", i, f, bestReal)
		}
	}
}

func TestWithSurrogateDeterministic(t *testing.T) {
	run := func() ([][]cluster.Result, Stats) {
		evaluated := map[string]int{}
		b := WithSurrogate(synthLeaf(&evaluated), SurrogateConfig{Warmup: 8, Seed: 99})
		var rounds [][]cluster.Result
		for r := 0; r < 3; r++ {
			got, err := b.EvaluateAll(context.Background(), candidates(16, 70, int64(r)))
			if err != nil {
				t.Fatal(err)
			}
			rounds = append(rounds, got)
		}
		return rounds, b.Stats()
	}
	a, sa := run()
	c, sc := run()
	if !reflect.DeepEqual(a, c) {
		t.Fatal("same seed and rounds produced different results")
	}
	if sa != sc {
		t.Fatalf("stats diverged: %+v vs %+v", sa, sc)
	}
	if sa[SurrogateEstimated] == 0 {
		t.Fatalf("filtering never engaged: %+v", sa)
	}
}

// TestWithSurrogateAdversarialLayering is the stats-layering satellite:
// WithSurrogate stacked over WithFitnessCache + WithRetry over a leaf
// that abandons half its tasks must keep Stats double-count-free — each
// candidate lands in exactly one of Tasks / CacheHits / result-error /
// SurrogateEstimated per round, and cache hits never train the
// surrogate twice.
func TestWithSurrogateAdversarialLayering(t *testing.T) {
	evaluated := map[string]int{}
	healthy := synthLeaf(&evaluated)
	// The leaf abandons every other task; WithRetry recovers them on a
	// fallback leaf with the same deterministic scores.
	halfDead := Func(func(s []seq.Sequence) ([]cluster.Result, error) {
		out, err := healthy.EvaluateAll(context.Background(), s)
		for i := 1; i < len(out); i += 2 {
			out[i] = cluster.Result{Index: i, Err: errors.New("quarantined")}
		}
		return out, err
	})
	fallbackEvaluated := map[string]int{}
	chain := WithRetry(halfDead, synthLeaf(&fallbackEvaluated), nil)
	chain = WithFitnessCache(chain, NewFitnessCache(0), 42)
	const n = 24
	b := WithSurrogate(chain, SurrogateConfig{Warmup: n, TopK: 0.1, Explore: 0.05, Seed: 5})

	seqs := candidates(n, 80, 11)
	account := func(results []cluster.Result, pre, post Stats) (sum int64, errs int64) {
		for _, r := range results {
			if r.Err != nil {
				errs++
			}
		}
		return (post[Tasks] - pre[Tasks]) + (post[CacheHits] - pre[CacheHits]) +
			errs + (post[SurrogateEstimated] - pre[SurrogateEstimated]), errs
	}

	// Round 1: warmup pass-through. Half the batch is abandoned by the
	// leaf and recovered on the fallback.
	pre := b.Stats()
	r1, err := b.EvaluateAll(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}
	post := b.Stats()
	if sum, errs := account(r1, pre, post); sum != n || errs != 0 {
		t.Fatalf("round 1 accounting: sum %d (want %d), result errors %d; stats %+v", sum, n, errs, post)
	}
	if post[Abandoned] != n/2 || post[Retried] != n/2 || post[Recovered] != n/2 {
		t.Fatalf("retry accounting: %+v, want %d abandoned, retried and recovered", post, n/2)
	}
	if post[Tasks] != n {
		t.Fatalf("tasks %d, want %d (the leaf's clean half + fallback recoveries)", post[Tasks], n)
	}
	if post[SurrogateTrained] != n {
		t.Fatalf("trained %d, want all %d clean results", post[SurrogateTrained], n)
	}

	// Round 2: the same batch. The surrogate now filters; every
	// forwarded candidate is a cache hit, so nothing reaches the leaves
	// — and nothing trains twice.
	pre = post
	r2, err := b.EvaluateAll(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}
	post = b.Stats()
	if sum, errs := account(r2, pre, post); sum != n || errs != 0 {
		t.Fatalf("round 2 accounting: sum %d (want %d), result errors %d; stats %+v", sum, n, errs, post)
	}
	const forward = 3 // round(0.1*24) + round(0.05*24)
	if hits := post[CacheHits] - pre[CacheHits]; hits != forward {
		t.Fatalf("cache hits %d, want %d forwarded candidates", hits, forward)
	}
	if tasks := post[Tasks] - pre[Tasks]; tasks != 0 {
		t.Fatalf("%d candidates re-evaluated despite full cache", tasks)
	}
	if est := post[SurrogateEstimated] - pre[SurrogateEstimated]; est != n-forward {
		t.Fatalf("estimated %d, want %d", est, n-forward)
	}
	if trained := post[SurrogateTrained] - pre[SurrogateTrained]; trained != 0 {
		t.Fatalf("cache hits trained the surrogate %d times — double-count", trained)
	}
	if post[SurrogateErrMicro] < 0 {
		t.Fatalf("negative error accumulator: %+v", post)
	}
}

func TestWithSurrogateForwardsWholeTinyRounds(t *testing.T) {
	// When top-K + exploration covers the whole round (tiny populations),
	// the middleware must degrade to a clean pass-through.
	evaluated := map[string]int{}
	b := WithSurrogate(synthLeaf(&evaluated), SurrogateConfig{Warmup: 2, TopK: 0.9, Explore: 0.2, Seed: 3})
	for round := 0; round < 3; round++ {
		seqs := candidates(2, 60, int64(round))
		got, err := b.EvaluateAll(context.Background(), seqs)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range got {
			want := synthScore(seqs[i].Residues())
			want.Index = i
			if !reflect.DeepEqual(r, want) {
				t.Fatalf("tiny round %d result %d altered: %+v", round, i, r)
			}
		}
	}
	if st := b.Stats(); st[SurrogateEstimated] != 0 {
		t.Fatalf("tiny rounds were estimated: %+v", st)
	}
}
