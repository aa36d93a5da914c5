package netcluster

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
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

// TestSetupCarriesNoDatabase: the broadcast is the proteome, its edges
// and the configuration, not the similarity database. Its gob encoding
// must stay within twice the residue bytes plus eight bytes an edge;
// with every protein's similarity profile in it, it was about ten
// times that.
func TestSetupCarriesNoDatabase(t *testing.T) {
	pr, eng := setupEngine(t)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(NewSetup(eng, 0, []int{1, 2}, 1)); err != nil {
		t.Fatal(err)
	}
	residues := 0
	for _, p := range pr.Proteins {
		residues += p.Len()
	}
	bound := 2 * (residues + 8*pr.Graph.NumEdges())
	t.Logf("setup encodes to %d bytes: %d residues, %d edges", buf.Len(), residues, pr.Graph.NumEdges())
	if buf.Len() > bound {
		t.Fatalf("setup encodes to %d bytes, want at most %d", buf.Len(), bound)
	}
}

// TestWorkerRejectsOversizedSetup: a setup broadcast larger than
// maxSetupMsgBytes ends the session with errMessageTooLarge after the
// worker has read no more than that, however long the message's length
// prefix claims it is, and has allocated no more than 64 MiB reading
// it: what one garbled or hostile master may cost a worker.
func TestWorkerRejectsOversizedSetup(t *testing.T) {
	master, worker := net.Pipe()
	sent := make(chan int64, 1)
	go func() {
		// A gob length prefix of 2^30-1 bytes, then zeros for as long as
		// the worker reads them.
		n, _ := master.Write([]byte{0xfc, 0x3f, 0xff, 0xff, 0xff})
		total := int64(n)
		zeros := make([]byte, 1<<20)
		for total < 2*maxSetupMsgBytes {
			n, err := master.Write(zeros)
			total += int64(n)
			if err != nil {
				break
			}
		}
		master.Close()
		sent <- total
	}()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	start := mem.TotalAlloc
	var cache cachedEngine
	n, _, _, err := runWorkerConn(context.Background(), worker, WorkerOptions{}.withDefaults(), &cache)
	runtime.ReadMemStats(&mem)
	grew := int64(mem.TotalAlloc - start)
	master.Close()
	worker.Close()
	taken := <-sent
	if !errors.Is(err, errMessageTooLarge) || n != 0 || cache.engine != nil {
		t.Fatalf("worker returned n=%d err=%v (engine built: %v), want %v", n, err, cache.engine != nil, errMessageTooLarge)
	}
	if taken > maxSetupMsgBytes {
		t.Fatalf("worker read %d bytes of a setup budget of %d", taken, maxSetupMsgBytes)
	}
	// gob reads a long message 10 MiB at a time and regrows the buffer
	// it appends to, so the allocation is a few times what was read.
	const maxAlloc = 64 << 20
	if grew > maxAlloc {
		t.Fatalf("%d bytes allocated for %d bytes read, bound %d", grew, taken, maxAlloc)
	}
	t.Logf("worker read %d bytes and allocated %d", taken, grew)
}

// TestWorkerRejectsOutOfRangeSetup: a broadcast whose scoring
// configuration the kernel has no meaning for ends the session with an
// error instead of crashing the worker inside engine construction (a
// negative FilterRadius used to index out of range there).
func TestWorkerRejectsOutOfRangeSetup(t *testing.T) {
	_, eng := setupEngine(t)
	for name, corrupt := range map[string]func(*Setup){
		"negative FilterRadius":   func(s *Setup) { s.FilterRadius = -1 },
		"negative MinEvidence":    func(s *Setup) { s.MinEvidence = -1 },
		"MinEvidence past uint16": func(s *Setup) { s.MinEvidence = 1 << 16 },
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

// runSession is one worker process's single connection to the master at
// addr, with an empty engine cache: it returns the tasks it processed
// once the master ends the run or the connection drops. Tests that need
// exactly one session use it; the rest run RunWorkerLoop.
func runSession(addr string) (int, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	var cache cachedEngine
	n, _, _, err := runWorkerConn(context.Background(), conn, WorkerOptions{}.withDefaults(), &cache)
	return n, err
}

// workerContext ends the worker loops a test starts when its cleanups
// run, before the master's Close.
func workerContext(t *testing.T) context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return ctx
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
		n, err := runSession(m.Addr())
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
			n, err := runSession(m.Addr())
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
	go RunWorkerLoop(workerContext(t), m.Addr(), WorkerOptions{})
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
	})
	go RunWorkerLoop(workerContext(t), m.Addr(), WorkerOptions{})
	waitWorkers(t, m, 1)
	// Longer than the 400ms silence bound.
	time.Sleep(600 * time.Millisecond)
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

// TestWorkerDialFailure: a worker whose master is not there reports each
// failed dial and keeps trying until its context ends, having processed
// nothing.
func TestWorkerDialFailure(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	var mu sync.Mutex
	var logged []string
	n, err := RunWorkerLoop(ctx, "127.0.0.1:1", WorkerOptions{
		ReconnectMin: 10 * time.Millisecond,
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logged = append(logged, fmt.Sprintf(format, args...))
		},
	})
	if n != 0 || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("worker against a closed port: n=%d err=%v, want 0 and the context's deadline", n, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logged) == 0 || !strings.Contains(logged[0], "dial 127.0.0.1:1") {
		t.Errorf("dial failures logged as %q", logged)
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
