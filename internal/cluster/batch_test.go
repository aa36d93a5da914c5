package cluster

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/seq"
)

// resultsEqual compares score payloads exactly (bit-identity).
func resultsEqual(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].TargetScore != want[i].TargetScore {
			t.Fatalf("%s[%d]: target %v != %v", label, i, got[i].TargetScore, want[i].TargetScore)
		}
		if len(got[i].NonTargetScores) != len(want[i].NonTargetScores) {
			t.Fatalf("%s[%d]: non-target count mismatch", label, i)
		}
		for j := range got[i].NonTargetScores {
			if got[i].NonTargetScores[j] != want[i].NonTargetScores[j] {
				t.Fatalf("%s[%d]: non-target %d: %v != %v",
					label, i, j, got[i].NonTargetScores[j], want[i].NonTargetScores[j])
			}
		}
	}
}

// Generation-aware evaluation — batched preprocessing plus the delta
// path fed by parent hints — must be bit-identical to the per-candidate
// reference path across successive generations.
func TestEvaluateAllContextGenerationAware(t *testing.T) {
	_, eng := setup(t)
	pool, err := New(eng, 0, []int{1, 2, 3}, Config{Workers: 2, ThreadsPerWorker: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(eng, 0, []int{1, 2, 3}, Config{Workers: 1, ThreadsPerWorker: 1})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(11))
	sampler := seq.NewSampler(seq.YeastComposition())
	gen := candidates(8, 100, 21)

	// Generation 0: hints present but empty (no ancestry yet); queries
	// must be retained for the next round.
	ctx := WithParentHints(context.Background(), map[string]string{})
	got := pool.EvaluateAllContext(ctx, gen)
	resultsEqual(t, "gen0", got, ref.EvaluateAllReport(gen).Results)
	if len(pool.current) != len(gen) {
		t.Fatal("gen0 queries not retained")
	}

	// Generation 1: copies, mutants, and both crossover children of a
	// gen 0 pair (one naming its second parent, one naming nonsense),
	// plus one orphan with a hint pointing at an unknown parent.
	hints := map[string]string{}
	var next []seq.Sequence
	for i := 0; i < 4; i++ {
		child := seq.Mutate(rng, gen[i], 0.05, sampler)
		hints[child.Residues()] = gen[i].Residues()
		next = append(next, child)
	}
	next = append(next, gen[4]) // exact copy
	hints[gen[4].Residues()] = gen[4].Residues()
	ca, cb := seq.Crossover(rng, gen[5], gen[6], 10)
	hints[ca.Residues()] = gen[5].Residues()
	hints[cb.Residues()] = gen[6].Residues()
	second := map[string]string{ca.Residues(): gen[6].Residues(), cb.Residues(): "NOTARESIDUESTRING"}
	next = append(next, ca, cb)
	orphan := seq.Random(rng, "orphan", 100, seq.YeastComposition())
	hints[orphan.Residues()] = "NOTARESIDUESTRING"
	next = append(next, orphan)

	_, reusedBefore := eng.DeltaStats()
	got = pool.EvaluateAllContext(WithSecondParents(WithParentHints(context.Background(), hints), second), next)
	resultsEqual(t, "gen1", got, ref.EvaluateAllReport(next).Results)
	if _, reused := eng.DeltaStats(); reused <= reusedBefore {
		t.Fatal("delta path never reused parent windows")
	}

	// Without hints: still batched and bit-identical, but no retention.
	pool2, err := New(eng, 0, []int{1, 2, 3}, Config{Workers: 2, ThreadsPerWorker: 1})
	if err != nil {
		t.Fatal(err)
	}
	got = pool2.EvaluateAll(next)
	resultsEqual(t, "no hints", got, ref.EvaluateAllReport(next).Results)
	if pool2.current != nil {
		t.Fatal("hint-less evaluation retained queries")
	}
}

// A generation evaluated in several calls under one WithRound number
// keeps the previous generation as delta parents for every call, and
// rotates only when the round changes.
func TestEvaluateAllContextRoundScopedRetention(t *testing.T) {
	_, eng := setup(t)
	pool, err := New(eng, 0, []int{1, 2}, Config{Workers: 1, ThreadsPerWorker: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(eng, 0, []int{1, 2}, Config{Workers: 1, ThreadsPerWorker: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	sampler := seq.NewSampler(seq.YeastComposition())
	gen0 := candidates(6, 100, 22)
	hints := map[string]string{}
	gen1 := make([]seq.Sequence, len(gen0))
	for i, parent := range gen0 {
		gen1[i] = seq.Mutate(rng, parent, 0.03, sampler)
		hints[gen1[i].Residues()] = parent.Residues()
	}
	eval := func(round int64, hints map[string]string, chunk []seq.Sequence) {
		t.Helper()
		ctx := WithRound(WithParentHints(context.Background(), hints), round)
		resultsEqual(t, "chunk", pool.EvaluateAllContext(ctx, chunk), ref.EvaluateAllReport(chunk).Results)
	}
	eval(1, map[string]string{}, gen0[:3])
	eval(1, map[string]string{}, gen0[3:])
	if len(pool.current) != len(gen0) || len(pool.parents) != 0 {
		t.Fatalf("round 1 retained %d current / %d parents, want %d / 0", len(pool.current), len(pool.parents), len(gen0))
	}
	for k, chunk := range [][]seq.Sequence{gen1[:2], gen1[2:4], gen1[4:]} {
		before, _ := eng.DeltaStats()
		eval(2, hints, chunk)
		if after, _ := eng.DeltaStats(); after-before != int64(len(chunk)) {
			t.Fatalf("round 2 chunk %d: %d delta builds for %d children of retained parents", k, after-before, len(chunk))
		}
	}
	if len(pool.parents) != len(gen0) || len(pool.current) != len(gen1) {
		t.Fatalf("round 2 holds %d parents / %d current, want %d / %d", len(pool.parents), len(pool.current), len(gen0), len(gen1))
	}
}

// hintedEval evaluates seqs as (part of) the generation hints describes
// and checks the scores against the hint-free per-candidate path.
func hintedEval(t *testing.T, pool, ref *Pool, hints map[string]string, seqs []seq.Sequence) {
	t.Helper()
	got := pool.EvaluateAllContext(WithParentHints(context.Background(), hints), seqs)
	resultsEqual(t, "hinted", got, ref.EvaluateAllReport(seqs).Results)
}

// The pool sees only what the caller's fitness cache missed, but the
// hints name the whole generation. A member answered by that cache —
// here a verbatim copy, left out of the evaluated batch as the cache
// would leave it — keeps its retained query, so its children one
// generation later are still delta builds.
func TestCacheServedCopyStaysDeltaParent(t *testing.T) {
	_, eng := setup(t)
	pool, err := New(eng, 0, []int{1, 2}, Config{Workers: 2, ThreadsPerWorker: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(eng, 0, []int{1, 2}, Config{Workers: 1, ThreadsPerWorker: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	sampler := seq.NewSampler(seq.YeastComposition())
	gen0 := candidates(4, 100, 24)
	hintedEval(t, pool, ref, map[string]string{}, gen0)

	// Generation 1: gen0[0] is copied (cache-served: hinted, not
	// evaluated); the others are replaced by mutants.
	survivor := gen0[0].Residues()
	hints := map[string]string{survivor: survivor}
	var gen1 []seq.Sequence
	for _, parent := range gen0[1:] {
		child := seq.Mutate(rng, parent, 0.05, sampler)
		hints[child.Residues()] = parent.Residues()
		gen1 = append(gen1, child)
	}
	hintedEval(t, pool, ref, hints, gen1)
	if pool.current[survivor] == nil {
		t.Fatal("a hinted, already retained member was dropped at rotation")
	}

	// Generation 2: every member is a mutant of a generation-1 member,
	// the survivor included.
	hints = map[string]string{}
	var gen2 []seq.Sequence
	for _, parent := range append([]seq.Sequence{gen0[0]}, gen1...) {
		child := seq.Mutate(rng, parent, 0.05, sampler)
		hints[child.Residues()] = parent.Residues()
		gen2 = append(gen2, child)
	}
	before, _ := eng.DeltaStats()
	hintedEval(t, pool, ref, hints, gen2)
	if after, _ := eng.DeltaStats(); after-before != int64(len(gen2)) {
		t.Fatalf("%d delta builds for %d children of retained parents", after-before, len(gen2))
	}
}

// Retention is the hinted generation and the one before it. Over 50
// generations in which half the population survives unevaluated and a
// lineage that stops being hinted is gone two rotations later, the two
// maps never hold more than two populations.
func TestRetentionBoundedToTwoGenerations(t *testing.T) {
	_, eng := setup(t)
	pool, err := New(eng, 0, []int{1}, Config{Workers: 2, ThreadsPerWorker: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	sampler := seq.NewSampler(seq.YeastComposition())
	const pop = 8
	gen := candidates(pop, 60, 25)
	founder := gen[0].Residues()
	hints := map[string]string{}
	evaluated := gen
	for g := 0; g < 50; g++ {
		pool.EvaluateAllContext(WithParentHints(context.Background(), hints), evaluated)
		if len(pool.current) > pop || len(pool.parents) > pop {
			t.Fatalf("generation %d retains %d current + %d parents for a population of %d", g, len(pool.current), len(pool.parents), pop)
		}
		_, inCurrent := pool.current[founder]
		_, inParents := pool.parents[founder]
		// The founder is copied through generation 9, then dropped.
		if want := g <= 9; inCurrent != want {
			t.Fatalf("generation %d: founder in current = %v, want %v", g, inCurrent, want)
		}
		if want := g >= 1 && g <= 10; inParents != want {
			t.Fatalf("generation %d: founder in parents = %v, want %v", g, inParents, want)
		}
		// Next generation: the first half survives as copies nobody
		// evaluates, the second half is replaced by mutants of it.
		hints = map[string]string{}
		evaluated = nil
		next := make([]seq.Sequence, pop)
		for i := range gen {
			if i < pop/2 && !(i == 0 && g >= 9) {
				next[i] = gen[i]
			} else {
				next[i] = seq.Mutate(rng, gen[i], 0.1, sampler)
				evaluated = append(evaluated, next[i])
			}
			hints[next[i].Residues()] = gen[i].Residues()
		}
		gen = next
	}
}

// Under WithRound survivors are carried where the retained maps rotate:
// by the first chunk of a round, not by later ones.
func TestRoundCarriesSurvivorsAtBoundaryOnly(t *testing.T) {
	_, eng := setup(t)
	pool, err := New(eng, 0, []int{1}, Config{Workers: 1, ThreadsPerWorker: 1})
	if err != nil {
		t.Fatal(err)
	}
	gen0 := candidates(4, 60, 26)
	a, b := gen0[0].Residues(), gen0[1].Residues()
	eval := func(round int64, hints map[string]string, chunk []seq.Sequence) {
		pool.EvaluateAllContext(WithRound(WithParentHints(context.Background(), hints), round), chunk)
	}
	eval(1, map[string]string{}, gen0)
	eval(2, map[string]string{a: a}, gen0[2:3])
	eval(2, map[string]string{b: b}, gen0[3:])
	if pool.current[a] == nil {
		t.Error("the round's first chunk did not carry its hinted survivor")
	}
	if pool.current[b] != nil {
		t.Error("a later chunk of the round carried a survivor")
	}
	if len(pool.parents) != len(gen0) || len(pool.current) != 3 {
		t.Errorf("round 2 holds %d parents / %d current, want %d / 3", len(pool.parents), len(pool.current), len(gen0))
	}
}
