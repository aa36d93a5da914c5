package core

import (
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
	base := ProblemFingerprint(eng, 0, []int{1, 2})
	if ProblemFingerprint(eng, 0, []int{1, 2}) != base {
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
	if ProblemFingerprint(eng, 1, []int{1, 2}) == base {
		t.Fatal("target change did not alter fingerprint")
	}
	if ProblemFingerprint(eng, 0, []int{1, 3}) == base {
		t.Fatal("non-target change did not alter fingerprint")
	}
	// A different engine configuration (a scoring ablation) must change
	// the fingerprint even over the same proteome and graph.
	alt, err := pipe.New(pr.Proteins, pr.Graph, pipe.Config{MinOcc: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ProblemFingerprint(alt, 0, []int{1, 2}) == base {
		t.Fatal("engine config change did not alter fingerprint")
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
