package evalbackend

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/seq"
	"repro/internal/yeastgen"
)

var (
	once   sync.Once
	prot   *yeastgen.Proteome
	engine *pipe.Engine
)

func setup(t testing.TB) (*yeastgen.Proteome, *pipe.Engine) {
	once.Do(func() {
		pr, err := yeastgen.Generate(yeastgen.TestParams())
		if err != nil {
			panic(err)
		}
		eng, err := pipe.New(pr.Proteins, pr.Graph, pipe.Config{}, 0)
		if err != nil {
			panic(err)
		}
		prot, engine = pr, eng
	})
	return prot, engine
}

func candidates(n, length int, seed int64) []seq.Sequence {
	rng := rand.New(rand.NewSource(seed))
	out := make([]seq.Sequence, n)
	for i := range out {
		out[i] = seq.Random(rng, "cand", length, seq.YeastComposition())
	}
	return out
}

func poolBackend(t testing.TB, workers int) *PoolBackend {
	_, eng := setup(t)
	b, err := NewPool(eng, 0, []int{1, 2}, cluster.Config{Workers: workers, ThreadsPerWorker: 1})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// assertSameResults compares two result slices for exact (bit-identical)
// score equality in input order.
func assertSameResults(t *testing.T, got, want []cluster.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Index != i {
			t.Fatalf("result %d has index %d", i, got[i].Index)
		}
		if got[i].Err != nil || want[i].Err != nil {
			t.Fatalf("result %d carries an error: got %v, want %v", i, got[i].Err, want[i].Err)
		}
		if got[i].TargetScore != want[i].TargetScore ||
			!reflect.DeepEqual(got[i].NonTargetScores, want[i].NonTargetScores) {
			t.Fatalf("result %d diverged:\ngot:  %+v\nwant: %+v", i, got[i], want[i])
		}
	}
}

func TestPoolBackendMatchesPoolAndCounts(t *testing.T) {
	_, eng := setup(t)
	pool, err := cluster.New(eng, 0, []int{1, 2}, cluster.Config{Workers: 2, ThreadsPerWorker: 1})
	if err != nil {
		t.Fatal(err)
	}
	seqs := candidates(7, 100, 1)
	want := pool.EvaluateAll(seqs)

	b := WrapPool(pool)
	got, err := b.EvaluateAll(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, got, want)
	st := b.Stats()
	if st[Rounds] != 1 || st[Tasks] != 7 || st[Abandoned] != 0 {
		t.Fatalf("stats: %+v", st)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.EvaluateAll(ctx, seqs); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pool call: %v", err)
	}
}

func TestFuncBackendValidatesLength(t *testing.T) {
	b := Func(func(seqs []seq.Sequence) ([]cluster.Result, error) {
		return make([]cluster.Result, 1), nil
	})
	if _, err := b.EvaluateAll(context.Background(), candidates(3, 80, 2)); err == nil {
		t.Fatal("wrong-length return accepted")
	}
	boom := errors.New("boom")
	b = Func(func(seqs []seq.Sequence) ([]cluster.Result, error) { return nil, boom })
	if _, err := b.EvaluateAll(context.Background(), candidates(3, 80, 2)); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestWithFitnessCacheServesHitsAndSkipsAbandoned(t *testing.T) {
	seqs := candidates(5, 100, 3)
	inner := poolBackend(t, 1)
	want, err := inner.EvaluateAll(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}

	cache := NewFitnessCache(0)
	calls := 0
	counted := Func(func(s []seq.Sequence) ([]cluster.Result, error) {
		calls++
		return poolBackend(t, 1).EvaluateAll(context.Background(), s)
	})
	b := WithFitnessCache(counted, cache, 123)

	first, err := b.EvaluateAll(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, first, want)
	second, err := b.EvaluateAll(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, second, want)
	if calls != 1 {
		t.Fatalf("inner called %d times; second round should be all hits", calls)
	}
	st := b.Stats()
	if st[CacheHits] != int64(len(seqs)) {
		t.Fatalf("stats: %+v", st)
	}

	// Abandoned results are never stored: the same candidate must reach
	// the backend again on the next round.
	abCache := NewFitnessCache(0)
	abCalls := 0
	ab := WithFitnessCache(Func(func(s []seq.Sequence) ([]cluster.Result, error) {
		abCalls++
		out := make([]cluster.Result, len(s))
		for i := range out {
			out[i] = cluster.Result{Index: i, Err: errors.New("abandoned")}
		}
		return out, nil
	}), abCache, 123)
	for round := 0; round < 2; round++ {
		res, err := ab.EvaluateAll(context.Background(), seqs[:1])
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Err == nil {
			t.Fatal("abandoned result lost its error")
		}
	}
	if abCalls != 2 {
		t.Fatalf("abandoned candidate served from cache (calls=%d)", abCalls)
	}
}

// TestWithFitnessCacheTargetFirst shares one cache between a
// target-first caller and a plain one: the plain caller never gets a
// target-only result, and its full results match a cacheless pool's.
func TestWithFitnessCacheTargetFirst(t *testing.T) {
	// Target 0's interaction partners score above 0 against it; random
	// sequences score 0.
	pr, _ := setup(t)
	seqs := candidates(6, 100, 5)
	for _, id := range pr.Graph.Neighbors(0) {
		seqs = append(seqs, pr.Proteins[id])
	}
	want, err := poolBackend(t, 1).EvaluateAll(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}
	b := WithFitnessCache(poolBackend(t, 1), NewFitnessCache(0), 123)
	first, err := b.EvaluateAll(cluster.WithTargetFirst(context.Background()), seqs)
	if err != nil {
		t.Fatal(err)
	}
	dead := 0
	for i, r := range first {
		if want[i].TargetScore == 0 {
			dead++
			if !r.TargetOnly || r.NonTargetScores != nil {
				t.Fatalf("candidate %d has target 0 but came back %+v, want target-only", i, r)
			}
		} else if r.TargetOnly || r.TargetScore != want[i].TargetScore || !reflect.DeepEqual(r.NonTargetScores, want[i].NonTargetScores) {
			t.Fatalf("candidate %d: target-first %+v, full %+v", i, r, want[i])
		}
	}
	if dead == 0 || dead == len(seqs) {
		t.Fatalf("%d of %d candidates have target 0; the test needs both kinds", dead, len(seqs))
	}
	for _, ctx := range []context.Context{context.Background(), cluster.WithTargetFirst(context.Background())} {
		got, err := b.EvaluateAll(ctx, seqs)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, got, want)
	}
	if st := b.Stats(); st[CacheHits] != int64(2*len(seqs)-dead) || st[Tasks] != int64(len(seqs)+dead) {
		t.Fatalf("stats %+v: want %d hits and %d tasks", st, 2*len(seqs)-dead, len(seqs)+dead)
	}
}

func TestWithFitnessCacheNilPassThrough(t *testing.T) {
	inner := poolBackend(t, 1)
	if b := WithFitnessCache(inner, nil, 1); b != Backend(inner) {
		t.Fatal("nil cache should return inner unchanged")
	}
}

func TestWithMetricsAccountsWallTime(t *testing.T) {
	reg := obs.NewRegistry()
	b := WithMetrics(poolBackend(t, 1), nil, reg)
	if _, err := b.EvaluateAll(context.Background(), candidates(4, 90, 5)); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st[EvalWallNS] <= 0 {
		t.Fatalf("no wall time accumulated: %+v", st)
	}
	if st := b.Stats(); st[Tasks] != 4 || st[Rounds] != 1 {
		t.Fatalf("inner stats not merged: %+v", st)
	}
}

func TestWithRetryRecoversAbandonedTasks(t *testing.T) {
	seqs := candidates(6, 100, 13)
	reference := poolBackend(t, 1)
	want, err := reference.EvaluateAll(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}

	// Primary abandons every other task; the pool fallback must recover
	// them with bit-identical scores.
	primary := Func(func(s []seq.Sequence) ([]cluster.Result, error) {
		out, err := poolBackend(t, 1).EvaluateAll(context.Background(), s)
		if err != nil {
			return nil, err
		}
		for i := range out {
			if i%2 == 1 {
				out[i] = cluster.Result{Index: i, Err: errors.New("quarantined")}
			}
		}
		return out, nil
	})
	b := WithRetry(primary, poolBackend(t, 2), nil)
	got, err := b.EvaluateAll(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, got, want)
	st := b.Stats()
	if st[Retried] != 3 || st[Recovered] != 3 {
		t.Fatalf("retry stats: %+v", st)
	}
}

func TestWithRetryFailsWholeBatchOver(t *testing.T) {
	seqs := candidates(5, 100, 17)
	reference := poolBackend(t, 1)
	want, err := reference.EvaluateAll(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}
	primary := Func(func([]seq.Sequence) ([]cluster.Result, error) {
		return nil, errors.New("master closed")
	})
	b := WithRetry(primary, poolBackend(t, 1), nil)
	got, err := b.EvaluateAll(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, got, want)
	st := b.Stats()
	if st[Retried] != 5 || st[Recovered] != 5 {
		t.Fatalf("retry stats: %+v", st)
	}

	// Context cancellation is not retried.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.EvaluateAll(ctx, seqs); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled retry call: %v", err)
	}
}

// TestCacheOverRetryLayering: WithFitnessCache over WithRetry over a
// leaf that abandons every other task keeps Stats free of double
// counts. Each candidate lands in exactly one of Tasks, CacheHits or a
// result error per round; the abandoned half is counted once each as
// Abandoned, Retried and Recovered; and the same batch again is served
// from the cache alone, bit-identical.
func TestCacheOverRetryLayering(t *testing.T) {
	const n = 24
	seqs := candidates(n, 80, 11)
	want, err := poolBackend(t, 1).EvaluateAll(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}
	healthy := poolBackend(t, 1)
	halfDead := Func(func(s []seq.Sequence) ([]cluster.Result, error) {
		out, err := healthy.EvaluateAll(context.Background(), s)
		if err != nil {
			return nil, err
		}
		for i := 1; i < len(out); i += 2 {
			out[i] = cluster.Result{Index: i, Err: errors.New("quarantined")}
		}
		return out, nil
	})
	b := WithFitnessCache(WithRetry(halfDead, poolBackend(t, 1), nil), NewFitnessCache(0), 42)

	round := func(pre Stats) Stats {
		t.Helper()
		got, err := b.EvaluateAll(context.Background(), seqs)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, got, want) // also rules out result errors
		post := b.Stats()
		if sum := (post[Tasks] - pre[Tasks]) + (post[CacheHits] - pre[CacheHits]); sum != n {
			t.Fatalf("tasks + cache hits = %d, want %d; stats %+v", sum, n, post)
		}
		return post
	}

	// Round 1: half the batch is abandoned by the leaf and recovered on
	// the fallback.
	r1 := round(Stats{})
	if r1[Abandoned] != n/2 || r1[Retried] != n/2 || r1[Recovered] != n/2 {
		t.Fatalf("retry accounting: %+v, want %d abandoned, retried and recovered", r1, n/2)
	}
	if r1[Tasks] != n {
		t.Fatalf("tasks %d, want %d (the leaf's clean half + fallback recoveries)", r1[Tasks], n)
	}

	// Round 2: the same batch, all cache hits; nothing reaches a leaf.
	if d := round(r1).Sub(r1); d[CacheHits] != n || d[Tasks] != 0 || d[Abandoned] != 0 || d[Retried] != 0 {
		t.Fatalf("second round %+v, want %d cache hits and nothing else", d, n)
	}
}
