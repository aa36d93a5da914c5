package netcluster

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/seq"
)

// TestDrainWhileDisconnected: a drain request must also end a worker
// that is between connections — dialing a master that no longer exists
// — since nothing is leased to an unconnected worker. Without the
// reconnect-loop drain check the loop would retry forever.
func TestDrainWhileDisconnected(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)

	drain := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		// 127.0.0.1:1 refuses connections; the loop sits in dial/backoff.
		_, err := RunWorkerLoop(ctx, "127.0.0.1:1", WorkerOptions{
			Drain: drain,
			Logf:  func(string, ...any) {},
		})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	close(drain)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("disconnected drain returned %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drained worker loop never exited its reconnect loop")
	}
}

// TestGracefulDrainMidRound: a worker asked to drain mid-round finishes
// the task it is computing, delivers that result with the Leaving flag,
// and exits its reconnect loop cleanly — without a single lease expiry,
// re-issue or quarantine, and without sinking the round, which the
// remaining worker completes.
func TestGracefulDrainMidRound(t *testing.T) {
	m := startMasterOpts(t, []int{1, 2}, 1, Options{HeartbeatInterval: 20 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)

	drain := make(chan struct{})
	drainedDone := make(chan error, 1)
	go func() {
		_, err := RunWorkerLoop(ctx, m.Addr(), WorkerOptions{Drain: drain})
		drainedDone <- err
	}()
	go RunWorkerLoop(ctx, m.Addr(), WorkerOptions{})
	waitWorkers(t, m, 2)

	go func() {
		time.Sleep(15 * time.Millisecond)
		close(drain)
	}()
	res, err := m.EvaluateAllContext(context.Background(), randomSeqs(3, 12, 100))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil || r.Index != i {
			t.Fatalf("result %d: %+v", i, r)
		}
	}

	select {
	case err := <-drainedDone:
		if err != nil {
			t.Fatalf("drained worker loop returned %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drained worker loop did not exit")
	}
	deadline := time.Now().Add(30 * time.Second)
	for m.Stats().WorkersDrained < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("drain never recorded: %+v", m.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := m.Stats()
	if st.TasksReissued != 0 || st.TasksQuarantined != 0 || st.LeasesExpired != 0 {
		t.Fatalf("graceful drain burned task attempts: %+v", st)
	}
	if m.EWMAServiceTime() <= 0 || st.ServiceEWMANS <= 0 {
		t.Fatalf("service-time EWMA not tracked: %+v", st)
	}
}

// TestMidRoundWorkerJoin: a worker that connects while a round is in
// flight receives the retained Setup broadcast, builds its engine and
// serves the same round — the round completes with every result clean.
func TestMidRoundWorkerJoin(t *testing.T) {
	m := startMasterOpts(t, []int{1, 2}, 1, Options{HeartbeatInterval: 20 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)

	go RunWorkerLoop(ctx, m.Addr(), WorkerOptions{})
	waitWorkers(t, m, 1)
	go func() {
		time.Sleep(20 * time.Millisecond)
		RunWorkerLoop(ctx, m.Addr(), WorkerOptions{})
	}()

	res, err := m.EvaluateAllContext(context.Background(), randomSeqs(5, 16, 110))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil || r.Index != i {
			t.Fatalf("result %d: %+v", i, r)
		}
	}
	waitWorkers(t, m, 2) // the joiner is a full fleet member afterwards
	if st := m.Stats(); st.WorkerConnects < 2 {
		t.Fatalf("mid-round join not recorded: %+v", st)
	}
}

// TestMinLiveWorkersGatesDispatch: with the fleet below MinLiveWorkers
// the master holds every task in the queue — no leases granted, no
// attempts burned — and resumes dispatch the moment the gate is met, so
// a depopulated fleet with MaxAttempts=1 cannot quarantine a round.
func TestMinLiveWorkersGatesDispatch(t *testing.T) {
	m := startMasterOpts(t, []int{1, 2}, 1, Options{
		MinLiveWorkers:    2,
		MaxAttempts:       1,
		LeaseTimeout:      200 * time.Millisecond,
		HeartbeatInterval: 20 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)

	go RunWorkerLoop(ctx, m.Addr(), WorkerOptions{})
	waitWorkers(t, m, 1)

	done := make(chan error, 1)
	var roundErr error
	go func() {
		res, err := m.EvaluateAllContext(context.Background(), randomSeqs(7, 8, 100))
		if err == nil {
			for i, r := range res {
				if r.Err != nil || r.Index != i {
					err = r.Err
					break
				}
			}
		}
		done <- err
	}()

	time.Sleep(120 * time.Millisecond)
	if n := m.Stats().TasksDispatched; n != 0 {
		t.Fatalf("gate leaked %d dispatches with 1 of 2 workers live", n)
	}
	go RunWorkerLoop(ctx, m.Addr(), WorkerOptions{})

	select {
	case roundErr = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("gated round never completed after the fleet recovered")
	}
	if roundErr != nil {
		t.Fatalf("gated round: %v", roundErr)
	}
	st := m.Stats()
	if st.TasksQuarantined != 0 {
		t.Fatalf("gate failed to protect tasks: %+v", st)
	}
}

// mutants returns one point mutant per parent, with the hints that name
// each one's parent.
func mutants(parents []seq.Sequence) ([]seq.Sequence, map[string]string) {
	children := make([]seq.Sequence, len(parents))
	hints := make(map[string]string, len(parents))
	for i, p := range parents {
		res := []byte(p.Residues())
		at := (7 * i) % len(res)
		res[at] = "AC"[btoi(res[at] == 'A')]
		children[i] = seq.MustNew("cand", string(res))
		hints[children[i].Residues()] = p.Residues()
	}
	return children, hints
}

// TestFreshWorkerDeltaBuildsItsFirstChunk: the worker that evaluated a
// generation leaves, and a worker with a fresh pool — a late joiner, or
// one that restarted — serves the next. It retains no parent, so every
// parent its chunks name is shipped with them, once, and it delta-builds
// the children instead of searching them cold.
func TestFreshWorkerDeltaBuildsItsFirstChunk(t *testing.T) {
	_, eng := setupEngine(t)
	m := startMasterOpts(t, []int{1}, 1, Options{HeartbeatInterval: 20 * time.Millisecond})
	const pop = 24
	round := func(gen []seq.Sequence, hints map[string]string) {
		t.Helper()
		results, err := m.EvaluateAllContext(cluster.WithParentHints(context.Background(), hints), gen)
		if err != nil {
			t.Fatal(err)
		}
		verifyScores(t, eng, gen, results)
	}
	first, stopFirst := context.WithCancel(context.Background())
	firstDone := make(chan struct{})
	go func() { defer close(firstDone); RunWorkerLoop(first, m.Addr(), WorkerOptions{}) }()
	waitWorkers(t, m, 1)
	parents := randomSeqs(81, pop, 100)
	round(parents, map[string]string{})
	stopFirst()
	join(t, firstDone, "first worker")
	waitStat(t, "disconnects", func() int64 { return m.Stats().WorkerDisconnects }, 1)

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go RunWorkerLoop(ctx, m.Addr(), WorkerOptions{})
	waitWorkers(t, m, 1)
	before := m.Stats()
	children, hints := mutants(parents)
	round(children, hints)
	st := m.Stats()
	if got := st.DeltaQueries - before.DeltaQueries; 10*got < 9*pop {
		t.Errorf("a fresh worker delta-built %d of the %d children of shipped parents, want at least 0.9", got, pop)
	}
	if got := st.ParentsShipped - before.ParentsShipped; got != pop {
		t.Errorf("%d parents shipped to a worker that retained none of %d, want each once", got, pop)
	}
	if lookups := st.WindowHits + st.WindowMisses - before.WindowHits - before.WindowMisses; lookups != 0 {
		t.Errorf("%d window-table lookups with every parent shipped", lookups)
	}
}

// TestDrainHandsBackTheChunkLeasedAhead: a worker that leaves after the
// first of the two chunks it holds hands the second back unstarted. It
// goes back to the queue with its attempt — no re-issue is counted, and
// every task of the round completes on its first attempt.
func TestDrainHandsBackTheChunkLeasedAhead(t *testing.T) {
	_, eng := setupEngine(t)
	m := startMasterOpts(t, []int{1}, 1, Options{HeartbeatInterval: 20 * time.Millisecond})
	leaver, err := dialProto(m.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer leaver.close()
	seqs := randomSeqs(83, 8, 100)
	roundDone := make(chan roundResult, 1)
	go func() {
		results, err := m.EvaluateAll(seqs)
		roundDone <- roundResult{results, err}
	}()
	head, err := leaver.next(requestMsg{})
	if err != nil {
		t.Fatal(err)
	}
	ahead, err := leaver.recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(ahead.Tasks) == 0 || m.Stats().ChunksLeasedAhead != 1 {
		t.Fatalf("no chunk leased ahead of the first: %+v, %+v", ahead, m.Stats())
	}
	goodbye := leaver.result(eng, head)
	goodbye.Leaving = true
	if end, err := leaver.next(goodbye); err != nil || !end.End {
		t.Fatalf("the master answered a goodbye with %+v, %v", end, err)
	}
	go RunWorkerLoop(workerContext(t), m.Addr(), WorkerOptions{})
	r := waitRound(t, roundDone)
	if r.err != nil {
		t.Fatal(r.err)
	}
	verifyScores(t, eng, seqs, r.results)
	for _, res := range r.results {
		if res.Attempts != 1 {
			t.Errorf("task %d took %d attempts around a graceful drain", res.Index, res.Attempts)
		}
	}
	if st := m.Stats(); st.WorkersDrained != 1 || st.TasksReissued != 0 || st.TasksQuarantined != 0 {
		t.Errorf("drain with a chunk leased ahead: %+v", st)
	}
}

// TestLeaseExpiryWithTwoChunksOut: a worker goes silent holding two
// chunks, and the master drops it when the lease timeout passes, taking
// both back: the tasks of the first have spent an attempt and travel
// alone from then on; those of the second come back as they went, first
// attempt still to come. The silent worker's connection is gone with its
// leases; it is leased again only after it redials, and then in step.
func TestLeaseExpiryWithTwoChunksOut(t *testing.T) {
	_, eng := setupEngine(t)
	m := startMasterOpts(t, []int{1}, 1, Options{
		LeaseTimeout:      200 * time.Millisecond,
		HeartbeatInterval: 40 * time.Millisecond,
		MaxAttempts:       2,
	})
	silent, err := dialProto(m.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.close()
	seqs := randomSeqs(85, 8, 100)
	roundDone := make(chan roundResult, 1)
	go func() {
		results, err := m.EvaluateAll(seqs)
		roundDone <- roundResult{results, err}
	}()
	head, err := silent.next(requestMsg{})
	if err != nil {
		t.Fatal(err)
	}
	ahead, err := silent.recv()
	if err != nil {
		t.Fatal(err)
	}
	waitStat(t, "disconnects", func() int64 { return m.Stats().WorkerDisconnects }, 1)
	if st := m.Stats(); st.LeasesExpired != 1 || st.TasksReissued != int64(len(head.Tasks)) {
		t.Fatalf("%d leases expired and %d tasks re-issued when a worker holding chunks of %d and %d went silent, want one and the first chunk's",
			st.LeasesExpired, st.TasksReissued, len(head.Tasks), len(ahead.Tasks))
	}

	started := map[int]bool{}
	for _, c := range head.Tasks {
		started[c.Index] = true
	}
	rescuer, err := dialProto(m.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rescuer.close()
	req := requestMsg{}
	for done := 0; done < len(seqs); {
		tk, err := rescuer.next(req)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range tk.Tasks {
			want := 1 + btoi(started[c.Index])
			if c.Attempt != want || (started[c.Index] && len(tk.Tasks) != 1) {
				t.Errorf("task %d (in the chunk the silent worker had started: %v) came back on attempt %d in a chunk of %d",
					c.Index, started[c.Index], c.Attempt, len(tk.Tasks))
			}
		}
		done += len(tk.Tasks)
		req = rescuer.result(eng, tk)
	}
	if err := rescuer.enc.Encode(req); err != nil {
		t.Fatal(err)
	}
	r := waitRound(t, roundDone)
	if r.err != nil {
		t.Fatal(r.err)
	}
	verifyScores(t, eng, seqs, r.results)

	// The silent worker wakes up to the end of its connection, redials,
	// and serves the next round with the rescuer.
	if tk, err := silent.recv(); err == nil {
		t.Fatalf("the master kept a silent worker's connection and sent it %+v", tk)
	}
	back, err := dialProto(m.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer back.close()
	if err := back.enc.Encode(requestMsg{}); err != nil {
		t.Fatal(err)
	}
	again := randomSeqs(86, 4, 100)
	go func() {
		results, err := m.EvaluateAll(again)
		roundDone <- roundResult{results, err}
	}()
	for _, pw := range []*protoWorker{back, rescuer} {
		go func(pw *protoWorker) {
			for {
				tk, err := pw.recv()
				if err != nil || tk.End || pw.enc.Encode(pw.result(eng, tk)) != nil {
					return
				}
			}
		}(pw)
	}
	r = waitRound(t, roundDone)
	if r.err != nil {
		t.Fatal(r.err)
	}
	verifyScores(t, eng, again, r.results)
	for _, res := range r.results {
		if res.Attempts != 1 {
			t.Errorf("task %d of the next round took %d attempts: a worker and the master fell out of step", res.Index, res.Attempts)
		}
	}
}

// TestProtocolFivePeersAreRefused: the target-first mark on chunks and
// target-only results made this protocol 6, and a peer of the version
// before is refused from either side. A version-6 worker stops at a
// version-5 master's broadcast; a version-5 worker makes the same
// comparison against its own constant, and what it compares is the
// master's stamp, which says 6 whatever the Setup it was built from
// said.
func TestProtocolFivePeersAreRefused(t *testing.T) {
	_, eng := setupEngine(t)
	setup := NewSetup(eng, 0, []int{1}, 1)
	setup.ProtocolVersion = 5
	if _, err := RunWorkerLoop(context.Background(), fakeMaster(t, setup, taskMsg{End: true}), WorkerOptions{}); !errors.Is(err, ErrProtocolVersion) {
		t.Fatalf("a version-%d worker against a version-5 master: %v, want ErrProtocolVersion", ProtocolVersion, err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMasterOptions(setup, ln, Options{})
	defer m.Close()
	old, err := dialProto(m.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer old.close()
	if ProtocolVersion != 6 || old.setup.ProtocolVersion != ProtocolVersion {
		t.Fatalf("a master of protocol %d stamped its broadcast %d: a version-5 worker must read a version it refuses", ProtocolVersion, old.setup.ProtocolVersion)
	}
}
