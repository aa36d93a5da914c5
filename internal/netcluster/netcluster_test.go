package netcluster

import (
	"context"
	"encoding/gob"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pipe"
	"repro/internal/seq"
	"repro/internal/yeastgen"
)

var (
	once   sync.Once
	prot   *yeastgen.Proteome
	engine *pipe.Engine
)

func setupEngine(t testing.TB) (*yeastgen.Proteome, *pipe.Engine) {
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

func TestSetupRoundTrip(t *testing.T) {
	pr, eng := setupEngine(t)
	setup := NewSetup(eng, 0, []int{1, 2}, 2)
	if len(setup.Proteins) != len(pr.Proteins) {
		t.Fatalf("setup has %d proteins", len(setup.Proteins))
	}
	if len(setup.Edges) != pr.Graph.NumEdges() {
		t.Fatalf("setup has %d edges, graph %d", len(setup.Edges), pr.Graph.NumEdges())
	}
	rebuilt, err := setup.BuildEngine()
	if err != nil {
		t.Fatal(err)
	}
	// Rebuilt engine must produce identical scores.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		a, b := rng.Intn(len(pr.Proteins)), rng.Intn(len(pr.Proteins))
		if got, want := rebuilt.ScorePair(a, b), eng.ScorePair(a, b); got != want {
			t.Errorf("rebuilt ScorePair(%d,%d) = %f, want %f", a, b, got, want)
		}
	}
}

func TestSetupFingerprint(t *testing.T) {
	_, eng := setupEngine(t)
	a := NewSetup(eng, 0, []int{1, 2}, 2)
	b := NewSetup(eng, 0, []int{1, 2}, 2)
	if a.fingerprint() != b.fingerprint() {
		t.Error("identical setups fingerprint differently")
	}
	// Liveness cadence is not part of the engine identity...
	b.HeartbeatIntervalMS = 1234
	if a.fingerprint() != b.fingerprint() {
		t.Error("heartbeat cadence changed the engine fingerprint")
	}
	// ...but the design problem is.
	c := NewSetup(eng, 1, []int{0, 2}, 2)
	if a.fingerprint() == c.fingerprint() {
		t.Error("different problems share a fingerprint")
	}
}

func TestSetupBadNames(t *testing.T) {
	s := Setup{MatrixName: "NOPE", ReducedName: "murphy10"}
	if _, err := s.BuildEngine(); err == nil {
		t.Error("unknown matrix accepted")
	}
	s = Setup{MatrixName: "PAM120", ReducedName: "NOPE"}
	if _, err := s.BuildEngine(); err == nil {
		t.Error("unknown alphabet accepted")
	}
}

// TestWorkerRejectsOutOfRangeSetup: a broadcast whose scoring
// configuration the kernel has no meaning for ends the session with an
// error — with or without a shipped database — instead of crashing the
// worker inside engine construction (a negative FilterRadius used to
// index out of range there).
func TestWorkerRejectsOutOfRangeSetup(t *testing.T) {
	_, eng := setupEngine(t)
	for name, corrupt := range map[string]func(*Setup){
		"negative FilterRadius":        func(s *Setup) { s.FilterRadius = -1 },
		"negative FilterRadius, no DB": func(s *Setup) { s.FilterRadius = -1; s.DB = nil },
		"negative MinEvidence":         func(s *Setup) { s.MinEvidence = -1 },
		"MinEvidence past uint16":      func(s *Setup) { s.MinEvidence = 1 << 16 },
	} {
		setup := NewSetup(eng, 0, []int{1, 2}, 1)
		setup.ProtocolVersion = ProtocolVersion
		corrupt(&setup)
		master, worker := net.Pipe()
		sent := make(chan error, 1)
		go func() {
			sent <- gob.NewEncoder(master).Encode(setup)
		}()
		var cache cachedEngine
		n, _, _, err := runWorkerConn(context.Background(), worker, WorkerOptions{}.withDefaults(), &cache)
		if err == nil || !strings.Contains(err.Error(), "rebuilding engine") || n != 0 {
			t.Errorf("%s: worker returned n=%d err=%v", name, n, err)
		}
		if err := <-sent; err != nil {
			t.Errorf("%s: sending setup: %v", name, err)
		}
		master.Close()
		worker.Close()
	}
}

func startMaster(t *testing.T, nonTargets []int, threads int) *Master {
	t.Helper()
	return startMasterOpts(t, nonTargets, threads, Options{})
}

func startMasterOpts(t *testing.T, nonTargets []int, threads int, opts Options) *Master {
	t.Helper()
	_, eng := setupEngine(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMasterOptions(NewSetup(eng, 0, nonTargets, threads), ln, opts)
	t.Cleanup(func() { m.Close() })
	return m
}

func waitWorkers(t *testing.T, m *Master, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for m.Workers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers connected", m.Workers(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func randomSeqs(seed int64, n, length int) []seq.Sequence {
	rng := rand.New(rand.NewSource(seed))
	seqs := make([]seq.Sequence, n)
	for i := range seqs {
		seqs[i] = seq.Random(rng, "cand", length, seq.YeastComposition())
	}
	return seqs
}

func TestEndToEndSingleWorker(t *testing.T) {
	_, eng := setupEngine(t)
	m := startMaster(t, []int{1, 2, 3}, 2)

	workerDone := make(chan int, 1)
	go func() {
		n, err := RunWorker(m.Addr())
		if err != nil {
			t.Errorf("worker: %v", err)
		}
		workerDone <- n
	}()

	seqs := randomSeqs(2, 5, 120)
	results, err := m.EvaluateAll(seqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.Index != i || len(r.NonTargetScores) != 3 {
			t.Errorf("result %d malformed: %+v", i, r)
		}
		if r.Err != nil {
			t.Errorf("result %d unexpectedly failed: %v", i, r.Err)
		}
		if r.Attempts != 1 {
			t.Errorf("result %d took %d attempts on a healthy fleet", i, r.Attempts)
		}
		want := eng.Score(seqs[i], 0, 1)
		if r.TargetScore != want {
			t.Errorf("candidate %d: remote target score %f != local %f", i, r.TargetScore, want)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-workerDone:
		if n != 5 {
			t.Errorf("worker processed %d tasks, want 5", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not exit after END")
	}
}

func TestMultipleWorkersShareLoad(t *testing.T) {
	m := startMaster(t, []int{1}, 1)
	const nWorkers = 3
	counts := make(chan int, nWorkers)
	for w := 0; w < nWorkers; w++ {
		go func() {
			n, err := RunWorker(m.Addr())
			if err != nil {
				t.Errorf("worker: %v", err)
			}
			counts <- n
		}()
	}
	// Wait for all workers to be connected so work is actually shared.
	waitWorkers(t, m, nWorkers)
	results, err := m.EvaluateAll(randomSeqs(3, 12, 110))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 12 {
		t.Fatal("missing results")
	}
	m.Close()
	total := 0
	for w := 0; w < nWorkers; w++ {
		select {
		case n := <-counts:
			total += n
		case <-time.After(10 * time.Second):
			t.Fatal("worker did not exit")
		}
	}
	if total != 12 {
		t.Errorf("workers processed %d tasks total, want 12", total)
	}
}

func TestMultipleGenerations(t *testing.T) {
	m := startMaster(t, []int{1, 2}, 1)
	go RunWorker(m.Addr())
	for gen := 0; gen < 3; gen++ {
		results, err := m.EvaluateAll(randomSeqs(int64(4+gen), 4, 100))
		if err != nil {
			t.Fatalf("generation %d: %v", gen, err)
		}
		if len(results) != 4 {
			t.Fatalf("generation %d: %d results", gen, len(results))
		}
	}
	st := m.Stats()
	if st.RoundsCompleted != 3 {
		t.Errorf("stats report %d completed rounds, want 3", st.RoundsCompleted)
	}
	if st.TasksCompleted != 12 {
		t.Errorf("stats report %d completed tasks, want 12", st.TasksCompleted)
	}
}

func TestIdleWorkerSurvivesBetweenRounds(t *testing.T) {
	// An idle worker must not be declared dead while the master simply
	// has no work: master-side heartbeats keep the link warm.
	m := startMasterOpts(t, []int{1}, 1, Options{
		LeaseTimeout:      400 * time.Millisecond,
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatMisses:   3,
	})
	go RunWorker(m.Addr())
	waitWorkers(t, m, 1)
	// Far longer than the 75ms liveness timeout.
	time.Sleep(500 * time.Millisecond)
	if m.Workers() != 1 {
		t.Fatal("idle worker was dropped between rounds")
	}
	results, err := m.EvaluateAll(randomSeqs(7, 3, 100))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("task %d failed after idle period: %v", r.Index, r.Err)
		}
	}
}

func TestEvaluateEmpty(t *testing.T) {
	m := startMaster(t, nil, 1)
	results, err := m.EvaluateAll(nil)
	if err != nil || results != nil {
		t.Fatalf("empty evaluation: results=%v err=%v", results, err)
	}
}

func TestWorkerDialFailure(t *testing.T) {
	if _, err := RunWorker("127.0.0.1:1"); err == nil {
		t.Error("dialing a closed port succeeded")
	}
}

func TestMasterCloseIdempotent(t *testing.T) {
	m := startMaster(t, nil, 1)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal("second close errored:", err)
	}
}

func TestEvaluateAfterCloseFails(t *testing.T) {
	m := startMaster(t, nil, 1)
	m.Close()
	if _, err := m.EvaluateAll(randomSeqs(5, 2, 100)); err != ErrMasterClosed {
		t.Fatalf("EvaluateAll after Close: err = %v, want ErrMasterClosed", err)
	}
}
