package cluster

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

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

func TestNewValidation(t *testing.T) {
	_, eng := setup(t)
	if _, err := New(eng, -1, nil, Config{}); err == nil {
		t.Error("negative target accepted")
	}
	if _, err := New(eng, 10000, nil, Config{}); err == nil {
		t.Error("out-of-range target accepted")
	}
	if _, err := New(eng, 0, []int{0}, Config{}); err == nil {
		t.Error("target in non-target set accepted")
	}
	if _, err := New(eng, 0, []int{99999}, Config{}); err == nil {
		t.Error("out-of-range non-target accepted")
	}
	// A pool of no workers would return all-zero scores without a word.
	if _, err := New(eng, 0, []int{1}, Config{Workers: -1}); err == nil {
		t.Error("negative Workers accepted")
	}
	if _, err := New(eng, 0, []int{1}, Config{ThreadsPerWorker: -1}); err == nil {
		t.Error("negative ThreadsPerWorker accepted")
	}
	p, err := New(eng, 0, []int{1, 2}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Config().Workers != 4 || p.Config().ThreadsPerWorker != 4 {
		t.Errorf("defaults: %+v", p.Config())
	}
	if p.TargetID() != 0 || len(p.NonTargetIDs()) != 2 {
		t.Error("accessors wrong")
	}
}

func TestEvaluateAllShape(t *testing.T) {
	_, eng := setup(t)
	pool, _ := New(eng, 0, []int{1, 2, 3}, Config{Workers: 3, ThreadsPerWorker: 2})
	seqs := candidates(11, 120, 1)
	results := pool.EvaluateAll(seqs)
	if len(results) != 11 {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.Index != i {
			t.Errorf("result %d has index %d", i, r.Index)
		}
		if len(r.NonTargetScores) != 3 {
			t.Errorf("result %d has %d non-target scores", i, len(r.NonTargetScores))
		}
		if r.TargetScore < 0 || r.TargetScore > 1 {
			t.Errorf("target score %f out of range", r.TargetScore)
		}
	}
}

func TestOnDemandMatchesSerialScores(t *testing.T) {
	_, eng := setup(t)
	nts := []int{4, 5, 6, 7}
	pool, _ := New(eng, 2, nts, Config{Workers: 4, ThreadsPerWorker: 3})
	seqs := candidates(6, 140, 2)
	// Plant a motif so scores are non-trivial.
	pr, _ := setup(t)
	cm := pr.MasterMotif(pr.ComplementOf(pr.Motifs(2)[0]))
	body := []byte(seqs[0].Residues())
	copy(body[50:], cm.Residues())
	seqs[0] = seq.MustNew("cand", string(body))

	results := pool.EvaluateAll(seqs)
	for i, s := range seqs {
		wantTarget := eng.Score(s, 2, 1)
		if results[i].TargetScore != wantTarget {
			t.Errorf("candidate %d: pool target score %f != serial %f",
				i, results[i].TargetScore, wantTarget)
		}
		for j, id := range nts {
			if want := eng.Score(s, id, 1); results[i].NonTargetScores[j] != want {
				t.Errorf("candidate %d non-target %d: %f != %f",
					i, id, results[i].NonTargetScores[j], want)
			}
		}
	}
	if results[0].TargetScore < 0.4 {
		t.Errorf("planted binder scored %f against its target", results[0].TargetScore)
	}
}

func TestStaticMatchesOnDemandResults(t *testing.T) {
	_, eng := setup(t)
	pool, _ := New(eng, 1, []int{2, 3}, Config{Workers: 3, ThreadsPerWorker: 2})
	seqs := candidates(9, 130, 3)
	onDemand := pool.EvaluateAllReport(seqs)
	static := pool.EvaluateAllStatic(seqs)
	for i := range seqs {
		if onDemand.Results[i].TargetScore != static.Results[i].TargetScore {
			t.Errorf("candidate %d: dispatch modes disagree", i)
		}
	}
}

// TestStaticGoldenEquivalence pins the stronger contract the evaluation
// backends rely on: static round-robin partitioning returns Results that
// are exactly — bit for bit, field for field — what on-demand dispatch
// returns. Scheduling policy must never leak into scores.
func TestStaticGoldenEquivalence(t *testing.T) {
	_, eng := setup(t)
	pool, _ := New(eng, 2, []int{0, 1, 4}, Config{Workers: 4, ThreadsPerWorker: 2})
	seqs := candidates(13, 110, 7)
	want := pool.EvaluateAll(seqs)
	got := pool.EvaluateAllStatic(seqs).Results
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("static dispatch results diverged from on-demand:\ngot:  %+v\nwant: %+v", got, want)
	}
	// And the equivalence is stable across repetition (no hidden state).
	if again := pool.EvaluateAll(seqs); !reflect.DeepEqual(again, want) {
		t.Fatal("repeated on-demand evaluation diverged from itself")
	}
}

func TestReportInstrumentation(t *testing.T) {
	_, eng := setup(t)
	cfg := Config{Workers: 2, ThreadsPerWorker: 2}
	pool, _ := New(eng, 0, []int{1, 2}, cfg)
	seqs := candidates(8, 120, 4)
	rep := pool.EvaluateAllReport(seqs)
	if rep.Elapsed <= 0 {
		t.Error("elapsed not recorded")
	}
	if len(rep.WorkerBusy) != 2 || len(rep.TaskTimes) != 8 {
		t.Fatalf("instrumentation shapes: %d workers, %d tasks",
			len(rep.WorkerBusy), len(rep.TaskTimes))
	}
	var total, sum int64
	for _, tt := range rep.TaskTimes {
		if tt <= 0 {
			t.Error("task time not recorded")
		}
		total += int64(tt)
	}
	for _, b := range rep.WorkerBusy {
		sum += int64(b)
	}
	if total != sum {
		t.Errorf("task times sum %d != worker busy sum %d", total, sum)
	}
	if rep.Makespan() <= 0 || int64(rep.Makespan()) > sum {
		t.Errorf("makespan %v out of bounds", rep.Makespan())
	}
}

func TestSingleWorkerSingleThread(t *testing.T) {
	_, eng := setup(t)
	pool, _ := New(eng, 0, []int{1}, Config{Workers: 1, ThreadsPerWorker: 1})
	seqs := candidates(3, 110, 5)
	results := pool.EvaluateAll(seqs)
	if len(results) != 3 {
		t.Fatal("wrong result count")
	}
}

func TestEmptyNonTargets(t *testing.T) {
	_, eng := setup(t)
	pool, err := New(eng, 0, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	results := pool.EvaluateAll(candidates(2, 110, 6))
	if len(results[0].NonTargetScores) != 0 {
		t.Error("expected no non-target scores")
	}
}

func TestEmptyCandidateList(t *testing.T) {
	_, eng := setup(t)
	pool, _ := New(eng, 0, []int{1}, Config{})
	if res := pool.EvaluateAll(nil); len(res) != 0 {
		t.Error("empty candidate list produced results")
	}
}

// forEach visits every index exactly once, whatever the ratio of range
// to workers, and numbers its goroutines below min(workers, n): none
// for an empty range, and a huge Workers costs a call nothing.
func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	const workers = 4
	for _, tc := range []struct{ workers, n int }{
		{workers, 0}, {workers, 1}, {workers, workers - 1}, {workers, 10000},
		{1, 100}, {math.MaxInt32, 0}, {math.MaxInt32, 3},
	} {
		visits := make([]atomic.Int32, tc.n)
		forEach(tc.workers, tc.n, func(w, i int) {
			visits[i].Add(1)
			if w < 0 || w >= min(tc.workers, tc.n) {
				t.Errorf("workers %d, n %d: worker number %d", tc.workers, tc.n, w)
			}
		})
		for i := range visits {
			if v := visits[i].Load(); v != 1 {
				t.Errorf("workers %d, n %d: index %d visited %d times", tc.workers, tc.n, i, v)
			}
		}
	}
}

// The on-demand report accounts every candidate to exactly one worker.
func TestReportAccountsEveryCandidateOnce(t *testing.T) {
	_, eng := setup(t)
	pool, _ := New(eng, 0, []int{1, 2}, Config{Workers: 2, ThreadsPerWorker: 1})
	rep := pool.EvaluateAllReport(candidates(40, 100, 8))
	var tasks, busy int64
	for i, r := range rep.Results {
		if r.Index != i {
			t.Errorf("result %d has index %d", i, r.Index)
		}
		tasks += int64(rep.TaskTimes[i])
	}
	for _, b := range rep.WorkerBusy {
		busy += int64(b)
	}
	if tasks != busy {
		t.Errorf("task times sum %d != worker busy sum %d", tasks, busy)
	}
}

// Eight callers share one pool, each evaluating an overlapping slice of
// one generation under the same parent hints. Every call rotates the
// retained maps under the others, so which candidates find a parent
// varies from run to run; the scores may not.
func TestConcurrentEvaluateAllContextMatchesSerial(t *testing.T) {
	_, eng := setup(t)
	pool, _ := New(eng, 0, []int{1, 2}, Config{Workers: 2, ThreadsPerWorker: 1})
	ref, _ := New(eng, 0, []int{1, 2}, Config{Workers: 1, ThreadsPerWorker: 1})
	rng := rand.New(rand.NewSource(16))
	sampler := seq.NewSampler(seq.YeastComposition())
	gen0 := candidates(12, 90, 27)
	gen1 := make([]seq.Sequence, len(gen0))
	hints := map[string]string{}
	for i, parent := range gen0 {
		gen1[i] = seq.Mutate(rng, parent, 0.05, sampler)
		hints[gen1[i].Residues()] = parent.Residues()
	}
	want := ref.EvaluateAllReport(gen1).Results
	pool.EvaluateAllContext(WithParentHints(context.Background(), map[string]string{}), gen0)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lo, hi := g, g+5
			got := pool.EvaluateAllContext(WithParentHints(context.Background(), hints), gen1[lo:hi])
			for k, r := range got {
				w := want[lo+k]
				if r.Index != k || r.TargetScore != w.TargetScore || !reflect.DeepEqual(r.NonTargetScores, w.NonTargetScores) {
					t.Errorf("caller %d, candidate %d: %+v, serial %+v", g, lo+k, r, w)
				}
			}
		}(g)
	}
	wg.Wait()
}
