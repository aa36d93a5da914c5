package netcluster

// Fault-injection suite: every distributed-system failure mode the lease
// machinery exists for, driven deterministically through internal/faultnet
// partitions and hand-scripted protocol peers. All tests are race-clean
// and bounded — a regression shows up as a test failure, never a hang.

import (
	"context"
	"encoding/gob"
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faultnet"
	"repro/internal/pipe"
	"repro/internal/seq"
)

// protoWorker speaks the master's wire protocol by hand so failure tests
// can script exact misbehavior: take a lease and go silent, crash
// between messages, or return a stale result after cancellation.
type protoWorker struct {
	conn  net.Conn
	enc   *gob.Encoder
	dec   *gob.Decoder
	setup Setup
}

// dialProto connects and consumes the setup broadcast. dial may be nil
// for a plain TCP connection.
func dialProto(addr string, dial func(string) (net.Conn, error)) (*protoWorker, error) {
	if dial == nil {
		dial = func(a string) (net.Conn, error) {
			return net.DialTimeout("tcp", a, 10*time.Second)
		}
	}
	conn, err := dial(addr)
	if err != nil {
		return nil, err
	}
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	pw := &protoWorker{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}
	if err := pw.dec.Decode(&pw.setup); err != nil {
		conn.Close()
		return nil, err
	}
	return pw, nil
}

func (pw *protoWorker) close() { pw.conn.Close() }

// next sends req (the previous task's result, or a bare work request)
// and blocks until the master answers with a real task or END, skipping
// idle-link heartbeats.
func (pw *protoWorker) next(req requestMsg) (taskMsg, error) {
	_ = pw.conn.SetDeadline(time.Now().Add(30 * time.Second))
	if err := pw.enc.Encode(req); err != nil {
		return taskMsg{}, err
	}
	return pw.recv()
}

// recv blocks until the master sends a real task or END, skipping
// idle-link heartbeats.
func (pw *protoWorker) recv() (taskMsg, error) {
	for {
		var t taskMsg // fresh each decode: gob leaves absent fields unchanged
		if err := pw.dec.Decode(&t); err != nil {
			return taskMsg{}, err
		}
		if !t.Heartbeat {
			return t, nil
		}
	}
}

// result computes the honest answer for the chunk t with a local
// engine, one uncached ScoreMany per candidate.
func (pw *protoWorker) result(eng *pipe.Engine, t taskMsg) requestMsg {
	work := append([]int{pw.setup.TargetID}, pw.setup.NonTargetIDs...)
	var req requestMsg
	for _, c := range t.Tasks {
		cand, err := seq.New(c.Name, c.Residues)
		if err != nil {
			panic(err)
		}
		scores := eng.ScoreMany(cand, work, 1)
		req.Results = append(req.Results, result{Index: c.Index, Attempt: c.Attempt, Target: scores[0], NonTarget: scores[1:]})
	}
	return req
}

// holds reports whether the chunk carries a candidate of that name.
func holds(t taskMsg, name string) bool {
	for _, c := range t.Tasks {
		if c.Name == name {
			return true
		}
	}
	return false
}

type roundResult struct {
	results []cluster.Result
	err     error
}

func waitRound(t *testing.T, ch <-chan roundResult) roundResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(60 * time.Second):
		t.Fatal("evaluation round did not finish")
		return roundResult{}
	}
}

func join(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not finish", what)
	}
}

func takeTask(t *testing.T, ch <-chan taskMsg, what string) taskMsg {
	t.Helper()
	select {
	case tk := <-ch:
		return tk
	case <-time.After(30 * time.Second):
		t.Fatalf("%s never received a task", what)
		return taskMsg{}
	}
}

func waitStat(t *testing.T, what string, get func() int64, min int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for get() < min {
		if time.Now().After(deadline) {
			t.Fatalf("%s: still %d, want >= %d", what, get(), min)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// verifyScores checks that every result is present, error-free and
// matches a local single-threaded evaluation against target protein 0.
func verifyScores(t *testing.T, eng *pipe.Engine, seqs []seq.Sequence, results []cluster.Result) {
	t.Helper()
	if len(results) != len(seqs) {
		t.Fatalf("got %d results for %d candidates", len(results), len(seqs))
	}
	for i, r := range results {
		if r.Index != i {
			t.Errorf("result %d carries index %d", i, r.Index)
		}
		if r.Err != nil {
			t.Errorf("task %d failed: %v", i, r.Err)
			continue
		}
		if want := eng.Score(seqs[i], 0, 1); r.TargetScore != want {
			t.Errorf("task %d: remote score %f != local %f", i, r.TargetScore, want)
		}
	}
}

// runPoisonSensitiveWorker serves the master honestly except for
// candidates named "poison", on which it crashes the connection while
// holding the lease — then reconnects and does it again. It exits when
// the master sends END or goes away.
func runPoisonSensitiveWorker(m *Master, eng *pipe.Engine, done chan<- struct{}) {
	defer close(done)
	for {
		pw, err := dialProto(m.Addr(), nil)
		if err != nil {
			return // master gone
		}
		req := requestMsg{}
		for {
			task, err := pw.next(req)
			if err != nil {
				pw.close()
				break // session dropped; redial
			}
			if task.End {
				pw.close()
				return
			}
			if holds(task, "poison") {
				pw.close() // crash while holding the lease
				break
			}
			req = pw.result(eng, task)
		}
	}
}

// TestHungWorkerLeaseExpiry: a worker takes a lease and its network goes
// silently dark (faultnet partition: its writes "succeed" locally, its
// reads block). The lease sweeper must re-issue the task to a healthy
// worker; the hung worker's eventual stale result must be dropped.
func TestHungWorkerLeaseExpiry(t *testing.T) {
	_, eng := setupEngine(t)
	m := startMasterOpts(t, []int{1, 2}, 1, Options{
		LeaseTimeout:      300 * time.Millisecond,
		HeartbeatInterval: 40 * time.Millisecond,
		HeartbeatMisses:   500, // liveness stays out of the way: the lease sweeper is under test
		MaxAttempts:       5,
	})
	prof := faultnet.NewProfile()
	hung, err := dialProto(m.Addr(), faultnet.Dialer(prof))
	if err != nil {
		t.Fatal(err)
	}
	defer hung.close()

	seqs := randomSeqs(11, 5, 110)
	roundDone := make(chan roundResult, 1)
	go func() {
		results, err := m.EvaluateAll(seqs)
		roundDone <- roundResult{results, err}
	}()

	// The hung worker takes the first lease, then its link partitions.
	held, err := hung.next(requestMsg{})
	if err != nil {
		t.Fatal(err)
	}
	prof.Partition()

	// A healthy worker joins; it must receive the re-issued task.
	healthyDone := make(chan struct{})
	go func() { defer close(healthyDone); RunWorker(m.Addr()) }()

	r := waitRound(t, roundDone)
	if r.err != nil {
		t.Fatal(r.err)
	}
	verifyScores(t, eng, seqs, r.results)
	for _, c := range held.Tasks {
		if got := r.results[c.Index].Attempts; got < 2 {
			t.Errorf("re-issued task %d reports %d attempts, want >= 2", c.Index, got)
		}
	}
	st := m.Stats()
	if st.LeasesExpired < 1 || st.TasksReissued < 1 {
		t.Errorf("stats: %d leases expired, %d re-issued, want >= 1 each", st.LeasesExpired, st.TasksReissued)
	}

	// The network heals and the hung worker finally answers: the master
	// must drop the stale result (its re-issued copy already completed).
	prof.Heal()
	_ = hung.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if err := hung.enc.Encode(hung.result(eng, held)); err != nil {
		t.Fatalf("sending stale result: %v", err)
	}
	waitStat(t, "results dropped", func() int64 { return m.Stats().ResultsDropped }, 1)

	m.Close()
	join(t, healthyDone, "healthy worker")
}

// TestWorkerCrashRequeuesTask: a worker dies holding a lease; the EOF
// must re-queue its task immediately (no lease wait) and the round must
// complete on the surviving worker.
func TestWorkerCrashRequeuesTask(t *testing.T) {
	_, eng := setupEngine(t)
	m := startMasterOpts(t, []int{1}, 1, Options{
		LeaseTimeout:      5 * time.Second,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatMisses:   100,
		MaxAttempts:       3,
	})
	crasher, err := dialProto(m.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}

	seqs := randomSeqs(21, 6, 100)
	roundDone := make(chan roundResult, 1)
	go func() {
		results, err := m.EvaluateAll(seqs)
		roundDone <- roundResult{results, err}
	}()

	held, err := crasher.next(requestMsg{})
	if err != nil {
		t.Fatal(err)
	}
	crasher.close() // dies without returning the task

	healthyDone := make(chan struct{})
	go func() { defer close(healthyDone); RunWorker(m.Addr()) }()

	r := waitRound(t, roundDone)
	if r.err != nil {
		t.Fatal(r.err)
	}
	verifyScores(t, eng, seqs, r.results)
	for _, c := range held.Tasks {
		if got := r.results[c.Index].Attempts; got < 2 {
			t.Errorf("crashed task %d completed in %d attempts, want >= 2", c.Index, got)
		}
	}
	st := m.Stats()
	if st.TasksReissued < 1 {
		t.Error("no re-issue recorded after a worker crash")
	}
	if st.WorkerDisconnects < 1 {
		t.Error("crash not recorded as a disconnect")
	}
	m.Close()
	join(t, healthyDone, "healthy worker")
}

// TestPoisonTaskQuarantined: a task that kills every worker that touches
// it must be abandoned after MaxAttempts as a per-task error — the round
// itself completes, and healthy candidates are unaffected.
func TestPoisonTaskQuarantined(t *testing.T) {
	_, eng := setupEngine(t)
	m := startMasterOpts(t, []int{1}, 1, Options{
		LeaseTimeout:      2 * time.Second,
		HeartbeatInterval: 30 * time.Millisecond,
		HeartbeatMisses:   100,
		MaxAttempts:       2,
	})
	workerDone := make(chan struct{})
	go runPoisonSensitiveWorker(m, eng, workerDone)

	rng := rand.New(rand.NewSource(31))
	seqs := []seq.Sequence{
		seq.Random(rng, "cand0", 100, seq.YeastComposition()),
		seq.Random(rng, "poison", 100, seq.YeastComposition()),
		seq.Random(rng, "cand2", 100, seq.YeastComposition()),
	}
	results, err := m.EvaluateAll(seqs)
	if err != nil {
		t.Fatal(err) // the round itself must survive a poison task
	}
	for i, r := range results {
		if seqs[i].Name() == "poison" {
			if !errors.Is(r.Err, ErrTaskAbandoned) {
				t.Errorf("poison task: Err = %v, want ErrTaskAbandoned", r.Err)
			}
			if r.Attempts != 2 {
				t.Errorf("poison task abandoned after %d attempts, want 2", r.Attempts)
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("healthy task %d: %v", i, r.Err)
			continue
		}
		if want := eng.Score(seqs[i], 0, 1); r.TargetScore != want {
			t.Errorf("task %d: score %f != local %f", i, r.TargetScore, want)
		}
	}
	if st := m.Stats(); st.TasksQuarantined != 1 {
		t.Errorf("stats report %d quarantined tasks, want 1", st.TasksQuarantined)
	}
	m.Close()
	join(t, workerDone, "poison-sensitive worker")
}

// TestCancelMidRoundDropsStaleResult: cancelling EvaluateAllContext must
// return promptly even while a worker holds a lease, and the straggler's
// late result must be dropped — never leaked into the next round.
func TestCancelMidRoundDropsStaleResult(t *testing.T) {
	_, eng := setupEngine(t)
	m := startMasterOpts(t, []int{1}, 1, Options{
		LeaseTimeout:      time.Minute, // nothing expires on its own
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatMisses:   200,
		MaxAttempts:       3,
	})
	pw, err := dialProto(m.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pw.close()

	seqs1 := randomSeqs(41, 4, 100)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	roundDone := make(chan roundResult, 1)
	go func() {
		results, err := m.EvaluateAllContext(ctx, seqs1)
		roundDone <- roundResult{results, err}
	}()
	held, err := pw.next(requestMsg{})
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	cancel()
	r := waitRound(t, roundDone)
	if !errors.Is(r.err, context.Canceled) {
		t.Fatalf("cancelled round returned %v, want context.Canceled", r.err)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Errorf("cancellation took %s despite an outstanding lease", waited)
	}

	// Round 2 begins with fresh candidates; the same connection first
	// delivers its stale round-1 result, then serves round 2 honestly.
	seqs2 := randomSeqs(42, 3, 100)
	roundDone2 := make(chan roundResult, 1)
	go func() {
		results, err := m.EvaluateAll(seqs2)
		roundDone2 <- roundResult{results, err}
	}()
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		req := pw.result(eng, held) // the stale round-1 result
		for {
			task, err := pw.next(req)
			if err != nil || task.End {
				return
			}
			req = pw.result(eng, task)
		}
	}()
	r2 := waitRound(t, roundDone2)
	if r2.err != nil {
		t.Fatal(r2.err)
	}
	verifyScores(t, eng, seqs2, r2.results)
	st := m.Stats()
	if st.ResultsDropped < 1 {
		t.Error("stale result from the cancelled round was not dropped")
	}
	if st.RoundsCancelled != 1 {
		t.Errorf("stats report %d cancelled rounds, want 1", st.RoundsCancelled)
	}
	m.Close()
	join(t, workerDone, "straggling worker")
}

// TestConcurrentRoundsFailFast: rounds are serialized — a second
// EvaluateAll while one is in flight fails fast with ErrBusy instead of
// corrupting shared dispatch state — and the master recovers fully.
func TestConcurrentRoundsFailFast(t *testing.T) {
	_, eng := setupEngine(t)
	m := startMaster(t, []int{1}, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	roundDone := make(chan roundResult, 1)
	go func() {
		results, err := m.EvaluateAllContext(ctx, randomSeqs(51, 2, 100))
		roundDone <- roundResult{results, err}
	}()
	waitStat(t, "rounds started", func() int64 { return m.Stats().RoundsStarted }, 1)
	if _, err := m.EvaluateAll(randomSeqs(52, 2, 100)); !errors.Is(err, ErrBusy) {
		t.Fatalf("second concurrent round: err = %v, want ErrBusy", err)
	}
	cancel()
	if r := waitRound(t, roundDone); !errors.Is(r.err, context.Canceled) {
		t.Fatalf("first round: %v, want context.Canceled", r.err)
	}
	// With the first round gone, evaluation works again.
	go RunWorker(m.Addr())
	seqs := randomSeqs(53, 3, 100)
	results, err := m.EvaluateAll(seqs)
	if err != nil {
		t.Fatal(err)
	}
	verifyScores(t, eng, seqs, results)
}

// TestWorkerReconnectAfterMasterRestart: RunWorkerLoop must survive its
// master dying and returning at the same address, rejoining and serving
// a second round without operator intervention.
func TestWorkerReconnectAfterMasterRestart(t *testing.T) {
	_, eng := setupEngine(t)
	opts := Options{
		LeaseTimeout:      2 * time.Second,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatMisses:   10,
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m1 := NewMasterOptions(NewSetup(eng, 0, []int{1}, 1), ln1, opts)
	addr := m1.Addr()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerDone := make(chan int, 1)
	go func() {
		n, _ := RunWorkerLoop(ctx, addr, WorkerOptions{
			ReconnectMin: 20 * time.Millisecond,
			ReconnectMax: 200 * time.Millisecond,
		})
		workerDone <- n
	}()
	waitWorkers(t, m1, 1)
	seqs1 := randomSeqs(61, 3, 100)
	r1, err := m1.EvaluateAll(seqs1)
	if err != nil {
		t.Fatal(err)
	}
	verifyScores(t, eng, seqs1, r1)
	m1.Close()

	// The master restarts on the same address; the worker's backoff loop
	// must find it (the worker was started once, before either master).
	var ln2 net.Listener
	for deadline := time.Now().Add(10 * time.Second); ; {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	m2 := NewMasterOptions(NewSetup(eng, 0, []int{1}, 1), ln2, opts)
	defer m2.Close()
	waitWorkers(t, m2, 1)
	seqs2 := randomSeqs(62, 3, 100)
	r2, err := m2.EvaluateAll(seqs2)
	if err != nil {
		t.Fatal(err)
	}
	verifyScores(t, eng, seqs2, r2)
	for _, r := range r2 {
		if r.Attempts != 1 {
			t.Errorf("task %d took %d attempts after a clean reconnect", r.Index, r.Attempts)
		}
	}

	cancel()
	m2.Close()
	select {
	case n := <-workerDone:
		if n != 6 {
			t.Errorf("worker processed %d tasks across the restart, want 6", n)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker loop did not exit on cancel")
	}
}

// TestWorkerDiesDuringClose: workers dying at the same instant as Close
// must not panic the master (the seed implementation re-queued into a
// closed channel here) and the aborted round reports ErrMasterClosed.
func TestWorkerDiesDuringClose(t *testing.T) {
	m := startMasterOpts(t, []int{1}, 1, Options{
		LeaseTimeout:      2 * time.Second,
		HeartbeatInterval: 30 * time.Millisecond,
		HeartbeatMisses:   10,
		MaxAttempts:       3,
	})
	var pws []*protoWorker
	for i := 0; i < 2; i++ {
		pw, err := dialProto(m.Addr(), nil)
		if err != nil {
			t.Fatal(err)
		}
		pws = append(pws, pw)
	}
	roundDone := make(chan roundResult, 1)
	go func() {
		results, err := m.EvaluateAllContext(context.Background(), randomSeqs(71, 6, 100))
		roundDone <- roundResult{results, err}
	}()
	// Both workers take leases...
	for _, pw := range pws {
		if _, err := pw.next(requestMsg{}); err != nil {
			t.Fatal(err)
		}
	}
	// ...then die at the same moment the master shuts down.
	var wg sync.WaitGroup
	wg.Add(1 + len(pws))
	go func() { defer wg.Done(); m.Close() }()
	for _, pw := range pws {
		go func(pw *protoWorker) { defer wg.Done(); pw.close() }(pw)
	}
	if r := waitRound(t, roundDone); !errors.Is(r.err, ErrMasterClosed) {
		t.Fatalf("round aborted by Close returned %v, want ErrMasterClosed", r.err)
	}
	wg.Wait()
}

// TestMasterRejectsAfterClose ensures late connections don't hang.
func TestMasterRejectsAfterClose(t *testing.T) {
	m := startMaster(t, nil, 1)
	m.Close()
	if _, err := RunWorker(m.Addr()); err == nil {
		t.Error("worker connected to a closed master")
	}
}

// TestFaultToleranceAcceptance is the issue's acceptance scenario: one
// hung worker, one crashing worker and one healthy worker share a round
// and every candidate still gets a result within the lease budget; then
// a poison task surfaces as a per-task error after MaxAttempts without
// hanging the round.
func TestFaultToleranceAcceptance(t *testing.T) {
	_, eng := setupEngine(t)
	m := startMasterOpts(t, []int{1, 2}, 1, Options{
		LeaseTimeout:      400 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatMisses:   40,
		MaxAttempts:       3,
	})

	// Worker 1 will hang: its network partitions once it holds a lease.
	prof := faultnet.NewProfile()
	hung, err := dialProto(m.Addr(), faultnet.Dialer(prof))
	if err != nil {
		t.Fatal(err)
	}
	defer hung.close()
	// Worker 2 will crash while holding a lease.
	crasher, err := dialProto(m.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	hungTask := make(chan taskMsg, 1)
	go func() {
		if tk, err := hung.next(requestMsg{}); err == nil {
			hungTask <- tk
		}
	}()
	crashTask := make(chan taskMsg, 1)
	go func() {
		if tk, err := crasher.next(requestMsg{}); err == nil {
			crashTask <- tk
		}
	}()

	seqs := randomSeqs(81, 8, 110)
	roundDone := make(chan roundResult, 1)
	start := time.Now()
	go func() {
		results, err := m.EvaluateAll(seqs)
		roundDone <- roundResult{results, err}
	}()
	// Both saboteurs hold leases before the honest worker even exists.
	takeTask(t, hungTask, "hung worker")
	prof.Partition()
	takeTask(t, crashTask, "crashing worker")
	crasher.close()
	// Worker 3, healthy, now carries the round.
	healthyCtx, stopHealthy := context.WithCancel(context.Background())
	defer stopHealthy()
	healthyDone := make(chan struct{})
	go func() {
		defer close(healthyDone)
		RunWorkerLoop(healthyCtx, m.Addr(), WorkerOptions{
			ReconnectMin: 20 * time.Millisecond,
			ReconnectMax: 200 * time.Millisecond,
		})
	}()

	r := waitRound(t, roundDone)
	if r.err != nil {
		t.Fatal(r.err)
	}
	elapsed := time.Since(start)
	verifyScores(t, eng, seqs, r.results)
	st := m.Stats()
	if st.LeasesExpired < 1 {
		t.Errorf("stats: %d leases expired, want >= 1 (hung worker)", st.LeasesExpired)
	}
	if st.TasksReissued < 2 {
		t.Errorf("stats: %d re-issues for one hang and one crash, want >= 2", st.TasksReissued)
	}
	t.Logf("8 candidates vs hung+crashing+healthy fleet: %s (%d re-issued, %d leases expired)",
		elapsed.Round(time.Millisecond), st.TasksReissued, st.LeasesExpired)

	// Part two: retire the fleet, then feed a poison candidate to a
	// worker that crashes on it but is otherwise honest.
	stopHealthy()
	join(t, healthyDone, "healthy worker")
	workerDone := make(chan struct{})
	go runPoisonSensitiveWorker(m, eng, workerDone)

	rng := rand.New(rand.NewSource(82))
	pSeqs := []seq.Sequence{
		seq.Random(rng, "ok0", 100, seq.YeastComposition()),
		seq.Random(rng, "poison", 100, seq.YeastComposition()),
		seq.Random(rng, "ok2", 100, seq.YeastComposition()),
	}
	results, err := m.EvaluateAll(pSeqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if pSeqs[i].Name() == "poison" {
			if !errors.Is(r.Err, ErrTaskAbandoned) {
				t.Errorf("poison task: Err = %v, want ErrTaskAbandoned", r.Err)
			}
			if r.Attempts != 3 {
				t.Errorf("poison task abandoned after %d attempts, want 3", r.Attempts)
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("healthy task %d: %v", i, r.Err)
			continue
		}
		if want := eng.Score(pSeqs[i], 0, 1); r.TargetScore != want {
			t.Errorf("task %d: score %f != local %f", i, r.TargetScore, want)
		}
	}
	m.Close()
	join(t, workerDone, "poison-sensitive worker")
}
