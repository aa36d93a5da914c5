package core

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/pipe"
)

// The cache's own unit tests (hit/miss, LRU bound, fingerprint
// isolation, Prometheus rendering) live with the implementation in
// internal/evalbackend; this file covers what stayed in core — the
// problem fingerprint and the Designer-level cache equivalence.

func TestProblemFingerprintSensitivity(t *testing.T) {
	pr, eng := setup(t)
	fp := func(eng *pipe.Engine, target int, nonTargets []int) uint64 {
		return Problem{Engine: eng, TargetID: target, NonTargetIDs: nonTargets}.Fingerprint()
	}
	base := fp(eng, 0, []int{1, 2})
	if fp(eng, 0, []int{1, 2}) != base {
		t.Fatal("fingerprint not deterministic")
	}
	// Pinned at the commit before Problem gained co-targets: single-target
	// fingerprints, and the checkpoints stamped with them, are unchanged.
	if base != 0xf242f339f13bbc4a {
		t.Fatalf("single-target fingerprint %#x changed; existing checkpoints would no longer load", base)
	}
	if (Problem{Engine: eng, TargetID: 0, CoTargetIDs: []int{1}, NonTargetIDs: []int{2}}).Fingerprint() == base {
		t.Fatal("moving a non-target to the co-targets did not alter fingerprint")
	}
	if fp(eng, 1, []int{1, 2}) == base {
		t.Fatal("target change did not alter fingerprint")
	}
	if fp(eng, 0, []int{1, 3}) == base {
		t.Fatal("non-target change did not alter fingerprint")
	}
	// A different engine configuration (a scoring ablation) must change
	// the fingerprint even over the same proteome and graph.
	alt, err := pipe.New(pr.Proteins, pr.Graph, pipe.Config{MinOcc: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fp(alt, 0, []int{1, 2}) == base {
		t.Fatal("engine config change did not alter fingerprint")
	}
}

// streamedFingerprint is Problem.Fingerprint as one FNV-1a stream over
// the engine's fingerprint, its scoring parameters, the graph's edges
// and the problem's IDs: the formula checkpoints were stamped with
// before the engine's part was hashed once per engine.
func streamedFingerprint(p Problem) uint64 {
	engine := p.Engine
	h := fnv.New64a()
	cfg := engine.Config()
	fmt.Fprintf(h, "eng:%016x;", engine.Fingerprint())
	fmt.Fprintf(h, "score:%g,%d,%t,%g,%g,%g,%d,%d,%g,%g;",
		cfg.CellSupport, cfg.FilterRadius, cfg.Unfiltered, cfg.TopFrac,
		cfg.ScoreScale, cfg.Pseudocount, cfg.MinOcc, cfg.MinEvidence,
		cfg.WeightScale, cfg.WeightCap)
	engine.Graph().Edges(func(a, b int) bool {
		fmt.Fprintf(h, "e%d,%d;", a, b)
		return true
	})
	fmt.Fprintf(h, "t%d;nt%v", p.TargetID, p.NonTargetIDs)
	if len(p.CoTargetIDs) > 0 {
		fmt.Fprintf(h, ";co%v", p.CoTargetIDs)
	}
	return h.Sum64()
}

// A problem's fingerprint, whose engine part is hashed once per engine,
// is the streamed formula's on every call: single-target and co-target
// problems, empty and long non-target lists, and an engine with other
// scoring parameters.
func TestProblemFingerprintMatchesStreamed(t *testing.T) {
	pr, eng := setup(t)
	alt, err := pipe.New(pr.Proteins, pr.Graph, pipe.Config{MinOcc: 1, TopFrac: 0.5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*pipe.Engine{eng, alt} {
		for _, p := range []Problem{
			{Engine: e, TargetID: 0, NonTargetIDs: []int{1, 2}},
			{Engine: e, TargetID: 3},
			{Engine: e, TargetID: 0, CoTargetIDs: []int{1}, NonTargetIDs: []int{2}},
			{Engine: e, TargetID: 5, CoTargetIDs: []int{4, 7}, NonTargetIDs: []int{1, 2, 3, 6, 8, 9, 10, 11}},
		} {
			want := streamedFingerprint(p)
			for call := 0; call < 2; call++ {
				if got := p.Fingerprint(); got != want {
					t.Fatalf("call %d, target %d co %v nt %v: %#x, streamed %#x", call, p.TargetID, p.CoTargetIDs, p.NonTargetIDs, got, want)
				}
			}
		}
	}
}

// TestDesignerCacheEquivalence is the end-to-end memo-cache correctness
// test: an identical seeded run with the cache enabled must produce the
// same Result as a cache-disabled run, while actually taking hits.
func TestDesignerCacheEquivalence(t *testing.T) {
	_, eng := setup(t)
	problem := Problem{Engine: eng, TargetID: 0, NonTargetIDs: []int{1}}

	run := func(cache *FitnessCache, disable bool) Result {
		opts := designOpts(10, 6, 42)
		opts.FitnessCache = cache
		opts.DisableFitnessCache = disable
		d, err := NewDesigner(problem, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	plain := run(nil, true)
	cache := NewFitnessCache(0)
	cached := run(cache, false)

	if !reflect.DeepEqual(plain, cached) {
		t.Fatalf("cached run diverged from plain run:\nplain:  %+v\ncached: %+v", plain, cached)
	}
	st := cache.Stats()
	if st.Hits == 0 {
		t.Fatalf("cache took no hits over a converging GA run: %+v", st)
	}
	if st.Misses == 0 || st.Entries == 0 {
		t.Fatalf("implausible cache stats: %+v", st)
	}

	// A second identical run sharing the cache replays memoized
	// evaluations and still reproduces the same Result.
	before := cache.Stats().Hits
	again := run(cache, false)
	if !reflect.DeepEqual(plain, again) {
		t.Fatal("shared-cache rerun diverged from plain run")
	}
	if cache.Stats().Hits <= before {
		t.Fatal("shared-cache rerun took no additional hits")
	}
}
