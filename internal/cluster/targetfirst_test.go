package cluster_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/evalbackend"
	"repro/internal/ga"
	"repro/internal/pipe"
	"repro/internal/seq"
	"repro/internal/yeastgen"
)

// s40 is the benchmark's service job problem: the P200 proteome (seed
// 1), its first wet-lab target and the first five other members of the
// target's cellular component as non-targets.
var s40 = sync.OnceValues(func() (*pipe.Engine, []int) {
	params := yeastgen.DefaultParams()
	params.NumProteins = 200
	params.Seed = 1
	pr, err := yeastgen.Generate(params)
	if err != nil {
		panic(err)
	}
	eng, err := pipe.New(pr.Proteins, pr.Graph, pipe.Config{}, 0)
	if err != nil {
		panic(err)
	}
	target := pr.WetlabTargetIDs()[0]
	ids := []int{target}
	for _, id := range pr.ComponentMembers(pr.Component(target)) {
		if id != target && len(ids) < 6 {
			ids = append(ids, id)
		}
	}
	return eng, ids
})

// s40Options is one S40 job: population 40, length 60, ten generations,
// warm start.
func s40Options(seed int64, cache bool, threads int) core.Options {
	gp := ga.DefaultParams()
	gp.PopulationSize = 40
	gp.SeqLen = 60
	gp.Seed = seed
	return core.Options{
		GA:                  gp,
		WarmStart:           true,
		Cluster:             cluster.Config{Workers: 1, ThreadsPerWorker: threads},
		Termination:         ga.Termination{MinGenerations: 10, MaxGenerations: 10},
		DisableFitnessCache: !cache,
	}
}

// watchedPool is the in-process pool as a design run's backend. Before
// every call it notes which candidates the pool will build incrementally
// (those with a retained parent), and after it reads what the pool
// retained for each candidate: partial queries, delta-built or not, and
// live ones built from a partial parent; the first call's candidates,
// which have no parents, are all batch builds. With ref
// set it checks every result against ref's per-candidate evaluation
// (fresh NewQuery, every score): a target-only result must have a target
// score of exactly 0 there, any other must equal it, and a partial
// candidate rescored must equal it too.
type watchedPool struct {
	*evalbackend.PoolBackend
	t                              *testing.T
	eng                            *pipe.Engine
	pool, ref                      *cluster.Pool
	prev                           map[string]*pipe.Query
	deltas, partial, liveOfPartial int
	deltaPartial                   int
	calls, gen0, gen0Partial       int
}

func (w *watchedPool) EvaluateAll(ctx context.Context, seqs []seq.Sequence) ([]cluster.Result, error) {
	hints, _ := cluster.ParentHintsFrom(ctx)
	second := cluster.SecondParentsFrom(ctx)
	delta, deltas := make([]bool, len(seqs)), 0
	for i, s := range seqs {
		res := s.Residues()
		if delta[i] = w.pool.Retained(hints[res]) != nil || w.pool.Retained(second[res]) != nil; delta[i] {
			deltas++
		}
	}
	before, _ := w.eng.DeltaStats()
	results, err := w.PoolBackend.EvaluateAll(ctx, seqs)
	after, _ := w.eng.DeltaStats()
	if int(after-before) != deltas {
		w.t.Errorf("call %d: the pool counted %d delta builds, %d candidates had a retained parent", w.calls, after-before, deltas)
	}
	w.deltas += deltas
	var want []cluster.Result
	if w.ref != nil {
		want = w.ref.EvaluateAllReport(seqs).Results
	}
	cur := make(map[string]*pipe.Query, len(seqs))
	for i, s := range seqs {
		res := s.Residues()
		q := w.pool.Retained(res)
		cur[res] = q
		if w.calls == 0 {
			w.gen0++
		}
		if q.Partial() {
			w.partial++
			if delta[i] {
				w.deltaPartial++
			}
			if w.calls == 0 {
				w.gen0Partial++
			}
			if !results[i].TargetOnly {
				w.t.Errorf("a partial candidate came back scored: %+v", results[i])
			}
		} else if p, s := w.prev[hints[res]], w.prev[second[res]]; p != nil && p.Partial() || s != nil && s.Partial() {
			w.liveOfPartial++
		}
		if want == nil {
			continue
		}
		got := results[i]
		if got.TargetOnly {
			if want[i].TargetScore != 0 {
				w.t.Errorf("candidate %d came back target-only; its target scores %v", i, want[i].TargetScore)
			}
			if q.Partial() {
				got = w.pool.Rescore(s)
			} else {
				continue
			}
		}
		if !sameResult(got, want[i]) {
			w.t.Errorf("candidate %d (partial %v): %+v, fresh evaluation %+v", i, q.Partial(), got, want[i])
		}
	}
	w.prev = cur
	w.calls++
	return results, err
}

func sameResult(a, b cluster.Result) bool {
	if a.TargetScore != b.TargetScore || a.TargetOnly != b.TargetOnly || len(a.NonTargetScores) != len(b.NonTargetScores) {
		return false
	}
	for j := range a.NonTargetScores {
		if a.NonTargetScores[j] != b.NonTargetScores[j] {
			return false
		}
	}
	return true
}

// runWatched runs one S40 job on a watched pool.
func runWatched(t *testing.T, opts core.Options, checked bool) *watchedPool {
	t.Helper()
	eng, ids := s40()
	pool, err := cluster.New(eng, ids[0], ids[1:], opts.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	w := &watchedPool{PoolBackend: evalbackend.WrapPool(pool), t: t, eng: eng, pool: pool}
	if checked {
		if w.ref, err = cluster.New(eng, ids[0], ids[1:], cluster.Config{Workers: 1, ThreadsPerWorker: 1}); err != nil {
			t.Fatal(err)
		}
	}
	opts.Backend = w
	if _, err := core.Design(eng, ids[0], ids[1:], opts); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestTargetFirstDeltaEndsPartial is the count gate of reach-gated
// preprocessing: over the eight S40 jobs of the benchmark's first
// service_burst round at harness seed 1 (two clients, four jobs each,
// fitness cache on), at least 60 % of the candidates the pool builds
// incrementally end partial — searched in the target's reach set only.
// It also logs how many of generation 0's batch-built candidates end
// partial.
func TestTargetFirstDeltaEndsPartial(t *testing.T) {
	var deltas, partial, gen0, gen0Partial int
	for client := int64(0); client < 2; client++ {
		for job := int64(1); job <= 4; job++ {
			w := runWatched(t, s40Options(1_000_000+client*100_000+job, true, 1), false)
			deltas += w.deltas
			partial += w.deltaPartial
			gen0 += w.gen0
			gen0Partial += w.gen0Partial
		}
	}
	share := float64(partial) / float64(deltas)
	t.Logf("%d of %d delta candidates partial (%.1f %%); %d of %d generation-0 batch candidates partial",
		partial, deltas, 100*share, gen0Partial, gen0)
	if share < 0.60 {
		t.Errorf("%d of %d delta candidates partial (%.1f %%), want at least 60 %%", partial, deltas, 100*share)
	}
}

// TestTargetFirstGateMatchesFreshEvaluation runs three S40 jobs — one
// dead in every generation, one whose candidates all bind the target,
// and one where 22 candidates bind although a parent did not — on pools of one to three threads per worker
// and checks every candidate against a fresh per-candidate evaluation:
// a partial one scores 0 against the target and rescores
// (cluster.Pool.Rescore) to the fresh result, and the rest, live
// children of partial parents among them, equal it.
func TestTargetFirstGateMatchesFreshEvaluation(t *testing.T) {
	var partial, liveOfPartial int
	for threads := 1; threads <= 3; threads++ {
		for _, seed := range []int64{1_000_001, 1_100_001, 1_000_002} {
			w := runWatched(t, s40Options(seed, false, threads), true)
			partial += w.partial
			liveOfPartial += w.liveOfPartial
		}
	}
	t.Logf("%d partial candidates, %d live children of a partial parent", partial, liveOfPartial)
	if partial == 0 || liveOfPartial == 0 {
		t.Fatalf("%d partial candidates and %d live children of a partial parent, want some of both", partial, liveOfPartial)
	}
}

// TestTargetFirstPartialParentsAbsentWhenUngated: a generation-aware
// call without the target-first mark builds a child of a partial parent
// as if the parent were not retained, and scores it in full.
func TestTargetFirstPartialParentsAbsentWhenUngated(t *testing.T) {
	eng, ids := s40()
	pool, err := cluster.New(eng, ids[0], ids[1:], cluster.Config{Workers: 2, ThreadsPerWorker: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := cluster.New(eng, ids[0], ids[1:], cluster.Config{Workers: 1, ThreadsPerWorker: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	sampler := seq.NewSampler(seq.YeastComposition())
	gen := make([]seq.Sequence, 40)
	for i := range gen {
		gen[i] = seq.Random(rng, "c", 60, seq.YeastComposition())
	}
	breed := func(parents []seq.Sequence) ([]seq.Sequence, map[string]string) {
		children, hints := make([]seq.Sequence, len(parents)), map[string]string{}
		for i, p := range parents {
			children[i] = seq.Mutate(rng, p, 0.03, sampler)
			hints[children[i].Residues()] = p.Residues()
		}
		return children, hints
	}
	targetFirst := cluster.WithTargetFirst(cluster.WithParentHints(context.Background(), map[string]string{}))
	pool.EvaluateAllContext(targetFirst, gen)
	gen, hints := breed(gen)
	pool.EvaluateAllContext(cluster.WithTargetFirst(cluster.WithParentHints(context.Background(), hints)), gen)
	partial := 0
	for _, s := range gen {
		if pool.Retained(s.Residues()).Partial() {
			partial++
		}
	}
	if partial == 0 {
		t.Fatal("no candidate of the target-first generation is partial")
	}
	gen, hints = breed(gen)
	before, _ := eng.DeltaStats()
	got := pool.EvaluateAllContext(cluster.WithParentHints(context.Background(), hints), gen)
	after, _ := eng.DeltaStats()
	if n := int(after - before); n != len(gen)-partial {
		t.Errorf("%d delta builds from %d parents of which %d partial, want %d", n, len(gen), partial, len(gen)-partial)
	}
	want := ref.EvaluateAllReport(gen).Results
	for i := range got {
		if !sameResult(got[i], want[i]) {
			t.Fatalf("candidate %d: %+v, fresh evaluation %+v", i, got[i], want[i])
		}
	}
}
