package obs

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(100 * time.Microsecond)
	}
	h.Observe(50 * time.Millisecond)
	if h.Count() != 101 {
		t.Fatalf("count = %d, want 101", h.Count())
	}
	wantSum := 100*100*time.Microsecond + 50*time.Millisecond
	if h.Sum() != wantSum {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
	// p50 should sit at the 128µs bound, p995+ at the ~64ms bound.
	if q := h.Quantile(0.5); q != 128*time.Microsecond {
		t.Errorf("p50 = %v, want 128µs", q)
	}
	if q := h.Quantile(0.999); q < 50*time.Millisecond || q > 128*time.Millisecond {
		t.Errorf("p99.9 = %v, want within [50ms, 128ms]", q)
	}
}

func TestHistogramOverflowGoesToInf(t *testing.T) {
	var h Histogram
	h.Observe(time.Hour) // beyond the largest finite bucket
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1", h.Count())
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
	}
	if cum != 0 {
		t.Fatalf("finite buckets hold %d observations, want 0", cum)
	}
}

func TestRegistryPrometheusRender(t *testing.T) {
	r := NewRegistry()
	r.Observe(StageEval, 3*time.Millisecond)
	r.Observe(StageEval, 5*time.Millisecond)
	r.Observe(StageDispatch, 10*time.Microsecond)

	var buf bytes.Buffer
	r.WritePrometheus(&buf, "test_stage")
	out := buf.String()
	for _, want := range []string{
		"# TYPE test_stage_seconds histogram",
		`test_stage_seconds_count{stage="pipe_eval"} 2`,
		`test_stage_seconds_count{stage="dispatch"} 1`,
		`test_stage_seconds_bucket{stage="pipe_eval",le="+Inf"} 2`,
		`test_stage_seconds_sum{stage="pipe_eval"} 0.008000`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	// Cumulative buckets never decrease.
	var prev int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, `test_stage_seconds_bucket{stage="pipe_eval"`) {
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &v); err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		prev = v
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.Observe("x", time.Second) // must not panic
	var buf bytes.Buffer
	r.WritePrometheus(&buf, "p")
	if buf.Len() != 0 {
		t.Fatalf("nil registry rendered %q", buf.String())
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Observe(StageCollect, time.Duration(i)*time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if n := r.Histogram(StageCollect).Count(); n != 4000 {
		t.Fatalf("count = %d, want 4000", n)
	}
}

func TestLoggerNilSafeAndSpan(t *testing.T) {
	var nilLogger *Logger
	nilLogger.Info("ignored")
	end := nilLogger.Span("round")
	end()
	if nilLogger.With("k", "v").Enabled() {
		t.Fatal("nil logger With should stay disabled")
	}

	var buf bytes.Buffer
	l := NewTextLogger(&buf, slog.LevelDebug)
	endSpan := l.With("run", "r1").Span("generation", "gen", 3)
	endSpan("evaluated", 10)
	out := buf.String()
	for _, want := range []string{"generation start", "generation end", "run=r1", "gen=3", "evaluated=10", "duration_ms="} {
		if !strings.Contains(out, want) {
			t.Errorf("span output missing %q in:\n%s", want, out)
		}
	}
}

func TestParseLevel(t *testing.T) {
	if lv, err := ParseLevel("debug"); err != nil || lv != slog.LevelDebug {
		t.Fatalf("ParseLevel(debug) = %v, %v", lv, err)
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("ParseLevel(loud) should fail")
	}
}

func TestJournalAppendReadTail(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "run1") // exercises MkdirAll
	j, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 5; g++ {
		if err := j.Append(GenerationRecord{Generation: g, BestFitness: float64(g) / 10, PopHash: "abcd"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	recs, err := ReadJournal(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || recs[4].Generation != 4 || recs[3].BestFitness != 0.3 {
		t.Fatalf("read %+v", recs)
	}
	// Reopening appends instead of truncating (resume continues the file).
	j2, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(GenerationRecord{Generation: 5}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	recs, err = ReadJournal(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 {
		t.Fatalf("after reopen: %d records, want 6", len(recs))
	}
}

func TestReadJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(GenerationRecord{Generation: 0}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// Simulate a crash mid-append: a torn, unparseable trailing line.
	f, err := os.OpenFile(JournalPath(dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"gen":1,"best":0.`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	recs, err := ReadJournal(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Generation != 0 {
		t.Fatalf("torn tail: %+v", recs)
	}
}

// TestReadJournalKeepsRetiredFields: a journal written by an older build
// carries fields no record has any more — stolen_batches from sharded
// local runs, hedged_wins from the hedging middleware, wincache_evicted
// from the LRU window cache, surrogate_trained and surrogate_mae from
// the surrogate pre-scorer, landscape_optima and
// landscape_neutral_accepts from the landscape-analysis mode — and still
// reads, every other field intact.
func TestReadJournalKeepsRetiredFields(t *testing.T) {
	dir := t.TempDir()
	line := `{"gen":4,"best":0.5,"pop_hash":"ab","evaluated":7,"stolen_batches":3,"wincache_evicted":5,"hedged_wins":1,"surrogate_trained":6,"surrogate_mae":0.05,"landscape_optima":2,"landscape_neutral_accepts":9}` + "\n"
	if err := os.WriteFile(JournalPath(dir), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadJournal(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	want := GenerationRecord{Generation: 4, BestFitness: 0.5, PopHash: "ab", Evaluated: 7, WinCacheEvicted: 5}
	if len(recs) != 1 || recs[0] != want {
		t.Fatalf("old journal line read as %+v, want %+v", recs, want)
	}
}

func testCheckpoint(n int) Checkpoint {
	cp := Checkpoint{
		ProblemFP:      42,
		GASeed:         7,
		PopulationSize: n,
		Generation:     3,
		BestEver:       SequenceRecord{Name: "b", Residues: "ACDEF"},
		BestEverGen:    2,
		BestFitness:    0.5,
	}
	for i := 0; i < n; i++ {
		cp.Population = append(cp.Population, SequenceRecord{Name: fmt.Sprintf("s%d", i), Residues: "AAAA"})
	}
	for g := 0; g < 3; g++ {
		cp.Curve = append(cp.Curve, CurveRecord{Generation: g, Fitness: float64(g)})
	}
	return cp
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, JournalOptions{CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	if _, err := LoadCheckpoint(dir); err == nil {
		t.Fatal("LoadCheckpoint on empty dir should fail")
	}
	cp := testCheckpoint(4)
	if err := j.WriteCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != 3 || got.ProblemFP != 42 || len(got.Population) != 4 ||
		got.Population[1].Name != "s1" || got.BestEver.Residues != "ACDEF" || len(got.Curve) != 3 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	// Overwrite with a later checkpoint: load sees the newest.
	cp.Generation = 6
	cp.Curve = append(cp.Curve, CurveRecord{Generation: 3}, CurveRecord{Generation: 4}, CurveRecord{Generation: 5})
	if err := j.WriteCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	if got, err = LoadCheckpoint(dir); err != nil || got.Generation != 6 {
		t.Fatalf("overwrite: gen %d, err %v", got.Generation, err)
	}
	// No temp litter after atomic installs.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

func TestCheckpointValidate(t *testing.T) {
	cp := testCheckpoint(4)
	cp.Version = checkpointVersion
	if err := cp.Validate(); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
	bad := cp
	bad.Population = bad.Population[:2]
	if err := bad.Validate(); err == nil {
		t.Fatal("short population accepted")
	}
	bad = cp
	bad.Curve = bad.Curve[:1]
	if err := bad.Validate(); err == nil {
		t.Fatal("curve/generation mismatch accepted")
	}
	bad = cp
	bad.Generation = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero-generation checkpoint accepted")
	}
}

func TestShouldCheckpoint(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, JournalOptions{CheckpointEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for gen, want := range map[int]bool{0: false, 4: false, 5: true, 10: true, 11: false} {
		if got := j.ShouldCheckpoint(gen); got != want {
			t.Errorf("ShouldCheckpoint(%d) = %v, want %v", gen, got, want)
		}
	}
	var nilJ *RunJournal
	if nilJ.ShouldCheckpoint(5) {
		t.Fatal("nil journal should never checkpoint")
	}
	disabled, err := OpenJournal(filepath.Join(dir, "d"), JournalOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer disabled.Close()
	if disabled.ShouldCheckpoint(25) {
		t.Fatal("disabled checkpoints should never fire")
	}
}

// TestJournalAccountingInvariant: records carrying a Population are
// checked against the candidate conservation law
// evaluated + cache_hits + abandoned + surrogate_estimated == population;
// a violation either way is an ErrAccounting error from CheckAccounting
// and Append, and the record is still written. The fourth term is read
// only from journals of builds that had the surrogate pre-scorer.
func TestJournalAccountingInvariant(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Three terms cover the population.
	ok3 := GenerationRecord{Generation: 1, Population: 10, Evaluated: 7, CacheHits: 2, AbandonedTasks: 1}
	if got := ok3.AccountedCandidates(); got != 10 {
		t.Fatalf("AccountedCandidates = %d, want 10", got)
	}
	// An old journal's record: four terms cover the population.
	ok4 := GenerationRecord{Generation: 2, Population: 10, Evaluated: 2, CacheHits: 1, SurrogateEstimated: 7}
	// Legacy record without Population: unverifiable, never an error.
	legacy := GenerationRecord{Generation: 3, Evaluated: 1}
	for _, rec := range []GenerationRecord{ok3, ok4, legacy} {
		if err := j.Append(rec); err != nil {
			t.Fatalf("consistent record %+v: %v", rec, err)
		}
	}

	// A candidate lost by the chain (sum < population) and one counted
	// twice (sum > population) are errors — and the records are still
	// written.
	lost := GenerationRecord{Generation: 4, Population: 10, Evaluated: 5, SurrogateEstimated: 4}
	twice := GenerationRecord{Generation: 5, Population: 10, Evaluated: 10, CacheHits: 1}
	for _, rec := range []GenerationRecord{lost, twice} {
		if err := rec.CheckAccounting(); !errors.Is(err, ErrAccounting) {
			t.Fatalf("inconsistent record %+v: CheckAccounting returned %v, want ErrAccounting", rec, err)
		}
		if err := j.Append(rec); !errors.Is(err, ErrAccounting) {
			t.Fatalf("inconsistent record %+v: Append returned %v, want ErrAccounting", rec, err)
		}
	}
	j.Close()
	recs, err := ReadJournal(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || recs[3].SurrogateEstimated != 4 || recs[4].CacheHits != 1 {
		t.Fatalf("violating records dropped: %+v", recs)
	}
	// A closed journal writes nothing, so its error is not ErrAccounting.
	if err := j.Append(lost); err == nil || errors.Is(err, ErrAccounting) {
		t.Fatalf("Append on a closed journal returned %v", err)
	}
}
