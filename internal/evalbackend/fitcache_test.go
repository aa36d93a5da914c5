package evalbackend

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
)

func TestFitnessCacheHitReturnsStoredResult(t *testing.T) {
	c := NewFitnessCache(8)
	r := cluster.Result{TargetScore: 0.9, NonTargetScores: []float64{0.5, 0.25}}
	c.store(1, "ACDEF", r)
	got, ok := c.lookup(1, "ACDEF", false)
	if !ok {
		t.Fatal("stored entry not found")
	}
	if got.TargetScore != r.TargetScore || !reflect.DeepEqual(got.NonTargetScores, r.NonTargetScores) {
		t.Fatalf("lookup = %+v, want %+v", got, r)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 0 || st.Entries != 1 {
		t.Fatalf("stats after hit: %+v", st)
	}
}

func TestFitnessCacheCopiesStoredScores(t *testing.T) {
	c := NewFitnessCache(8)
	nts := []float64{0.5}
	c.store(1, "ACDEF", cluster.Result{TargetScore: 0.9, NonTargetScores: nts})
	nts[0] = 0.99 // caller keeps ownership of its slice
	got, ok := c.lookup(1, "ACDEF", false)
	if !ok || got.NonTargetScores[0] != 0.5 {
		t.Fatalf("stored scores aliased the caller's slice: %+v ok=%v", got, ok)
	}
}

func TestFitnessCacheFingerprintIsolation(t *testing.T) {
	c := NewFitnessCache(8)
	c.store(1, "ACDEF", cluster.Result{TargetScore: 0.42})
	// Same residues under a different problem fingerprint: must miss.
	if _, ok := c.lookup(2, "ACDEF", false); ok {
		t.Fatal("entry leaked across problem fingerprints")
	}
	// Different residues under the same fingerprint: must miss.
	if _, ok := c.lookup(1, "ACDEG", false); ok {
		t.Fatal("entry returned for different residues")
	}
}

func TestFitnessCacheLRUBound(t *testing.T) {
	c := NewFitnessCache(3)
	for i := 0; i < 5; i++ {
		c.store(1, fmt.Sprintf("SEQ%d", i), cluster.Result{TargetScore: float64(i)})
	}
	if st := c.Stats(); st.Entries != 3 {
		t.Fatalf("entries = %d, want bound 3", st.Entries)
	}
	// Oldest two evicted, newest three resident.
	for i := 0; i < 2; i++ {
		if _, ok := c.lookup(1, fmt.Sprintf("SEQ%d", i), false); ok {
			t.Fatalf("SEQ%d survived past the LRU bound", i)
		}
	}
	for i := 2; i < 5; i++ {
		if r, ok := c.lookup(1, fmt.Sprintf("SEQ%d", i), false); !ok || r.TargetScore != float64(i) {
			t.Fatalf("SEQ%d: ok=%v result=%+v", i, ok, r)
		}
	}
	// A lookup refreshes recency: touch SEQ2 then insert two more — SEQ2
	// must outlive SEQ3.
	c.lookup(1, "SEQ2", false)
	c.store(1, "SEQ5", cluster.Result{})
	c.store(1, "SEQ6", cluster.Result{})
	if _, ok := c.lookup(1, "SEQ2", false); !ok {
		t.Fatal("recently used SEQ2 evicted before older entries")
	}
	if _, ok := c.lookup(1, "SEQ3", false); ok {
		t.Fatal("SEQ3 should have been evicted as least recently used")
	}
}

func TestFitnessCachePrometheus(t *testing.T) {
	c := NewFitnessCache(4)
	c.store(7, "AAAA", cluster.Result{})
	c.lookup(7, "AAAA", false)
	c.lookup(7, "CCCC", false)
	var b strings.Builder
	c.WritePrometheus(&b, "insipsd_fitness_cache")
	out := b.String()
	for _, want := range []string{
		"insipsd_fitness_cache_hits_total 1",
		"insipsd_fitness_cache_misses_total 1",
		"insipsd_fitness_cache_entries 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}

func TestFitnessCacheTargetOnlyEntry(t *testing.T) {
	c := NewFitnessCache(8)
	c.store(1, "ACDEF", cluster.Result{TargetOnly: true})
	if r, ok := c.lookup(1, "ACDEF", true); !ok || !r.TargetOnly {
		t.Fatalf("target-first lookup: ok=%v result=%+v, want the target-only entry", ok, r)
	}
	// A caller that needs the non-target scores misses the entry...
	if r, ok := c.lookup(1, "ACDEF", false); ok {
		t.Fatalf("full lookup hit a target-only entry: %+v", r)
	}
	// ...and the full result it evaluates replaces it.
	full := cluster.Result{NonTargetScores: []float64{0.5, 0.25}}
	c.store(1, "ACDEF", full)
	for _, targetFirst := range []bool{false, true} {
		r, ok := c.lookup(1, "ACDEF", targetFirst)
		if !ok || r.TargetOnly || !reflect.DeepEqual(r.NonTargetScores, full.NonTargetScores) {
			t.Fatalf("lookup(targetFirst=%v) after the full store: ok=%v result=%+v", targetFirst, ok, r)
		}
	}
	// A target-only result never replaces a full entry.
	c.store(1, "ACDEF", cluster.Result{TargetOnly: true})
	if r, ok := c.lookup(1, "ACDEF", false); !ok || r.TargetOnly {
		t.Fatalf("full entry downgraded to target-only: ok=%v result=%+v", ok, r)
	}
	if st := c.Stats(); st.Entries != 1 || st.Misses != 1 {
		t.Fatalf("stats: %+v, want one entry and one miss", st)
	}
}
