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

	// Generation 1: copies, mutants, and a crossover child of gen 0,
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
	ca, _ := seq.Crossover(rng, gen[5], gen[6], 10)
	hints[ca.Residues()] = gen[5].Residues()
	next = append(next, ca)
	orphan := seq.Random(rng, "orphan", 100, seq.YeastComposition())
	hints[orphan.Residues()] = "NOTARESIDUESTRING"
	next = append(next, orphan)

	_, reusedBefore := eng.DeltaStats()
	got = pool.EvaluateAllContext(WithParentHints(context.Background(), hints), next)
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
