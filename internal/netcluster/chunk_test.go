package netcluster

// Tests of the chunked lease unit: chunk sizing and the travel-alone
// rule, round-scoped parent retention on the worker, the cache counters
// result messages carry, and the protocol's version and size checks.

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/seq"
)

func TestChunkSize(t *testing.T) {
	queue := func(attempts ...int) []*task {
		q := make([]*task, len(attempts))
		for i, a := range attempts {
			q[i] = &task{index: i, attempts: a}
		}
		return q
	}
	fresh := func(n int) []*task { return queue(make([]int, n)...) }
	cases := []struct {
		name    string
		queue   []*task
		workers int
		want    int
	}{
		{"half an even share", fresh(182), 2, 46},
		{"rounds up", fresh(5), 1, 3},
		{"tail", fresh(1), 3, 1},
		{"more workers than tasks", fresh(3), 8, 1},
		{"re-issued head travels alone", queue(1, 0, 0, 0, 0, 0, 0, 0), 1, 1},
		{"chunk stops before a re-issued task", queue(0, 0, 1, 0, 0, 0, 0, 0), 1, 2},
	}
	for _, c := range cases {
		if got := chunkSize(c.queue, c.workers); got != c.want {
			t.Errorf("%s: chunkSize(%d tasks, %d workers) = %d, want %d", c.name, len(c.queue), c.workers, got, c.want)
		}
	}
	// A D200 generation over two workers is a handful of messages.
	msgs := 0
	for left := 182; left > 0; msgs++ {
		left -= chunkSize(fresh(left), 2)
	}
	if msgs > 20 {
		t.Errorf("182 tasks over 2 workers took %d lease messages", msgs)
	}
}

// TestLargestChunkFitsTheWorkerBudget: the largest chunk an honest
// master leases from results it accepts fits what a worker reads of
// one. A 1000-candidate round of 150 residues goes to a lone worker
// (half the queue per chunk); every task names two parents no other task
// names, each with a profile at maxProfileBytes that the worker does not
// retain, and the worker keeps 1000 members. The master ships profiles
// up to maxChunkParentBytes; the rest wait for a later chunk naming them.
func TestLargestChunkFitsTheWorkerBudget(t *testing.T) {
	const roundSize, length = 1000, 150
	seqs := randomSeqs(1, roundSize, length)
	parents := randomSeqs(2, 2*roundSize, length)
	w := &workerConn{}
	r := &round{id: 1, seqs: seqs, genAware: true, targetFirst: true,
		keep: map[*workerConn][]string{w: nil}, shipped: map[*workerConn]map[string]struct{}{}}
	for i, p := range parents[:roundSize] {
		r.keep[w] = append(r.keep[w], p.Residues())
		tk := &task{index: i, parents: [2]string{p.Residues(), parents[roundSize+i].Residues()}}
		for k, parent := range tk.parents {
			tk.profiles[k] = parentProfile{Residues: parent, Profile: make([]byte, maxProfileBytes)}
		}
		r.tasks = append(r.tasks, tk)
	}
	r.queue = append([]*task(nil), r.tasks...)
	shipped := map[string]bool{}
	for lease := 1; lease <= 2; lease++ {
		chunk := r.pickLocked(w, chunkSize(r.queue, 1))
		for _, tk := range chunk {
			tk.attempts++
		}
		msg, parentBytes := r.chunkMsgLocked(w, chunk)
		if want := maxChunkParentBytes / maxProfileBytes; len(msg.Parents) != want || parentBytes != maxChunkParentBytes {
			t.Fatalf("chunk %d of %d tasks ships %d parents (%d bytes), want %d (%d bytes)",
				lease, len(chunk), len(msg.Parents), parentBytes, want, maxChunkParentBytes)
		}
		for _, p := range msg.Parents {
			if shipped[p.Residues] {
				t.Fatalf("chunk %d ships a parent an earlier chunk shipped", lease)
			}
			shipped[p.Residues] = true
		}
		var wire bytes.Buffer
		if err := gob.NewEncoder(&wire).Encode(msg); err != nil {
			t.Fatal(err)
		}
		size := wire.Len()
		var got taskMsg
		if err := gob.NewDecoder(&budgetReader{r: &wire, left: maxTaskMsgBytes}).Decode(&got); err != nil {
			t.Fatalf("chunk %d (%d bytes on the wire, budget %d): %v", lease, size, maxTaskMsgBytes, err)
		}
		if _, _, _, err := chunkSeqs(got, residueBoundFactor*length); err != nil {
			t.Fatalf("chunk %d: %v", lease, err)
		}
		t.Logf("chunk %d: %d tasks, %d kept members, %d parents, %d bytes on the wire",
			lease, len(got.Tasks), len(got.Keep), len(got.Parents), size)
	}
}

// TestPoisonChunkMatesSurvive: a candidate that kills every worker that
// touches it shares its first chunk with 19 others. They burn one
// attempt with it, then each travels alone and completes on its second;
// only the poison task reaches MaxAttempts.
func TestPoisonChunkMatesSurvive(t *testing.T) {
	_, eng := setupEngine(t)
	m := startMasterOpts(t, []int{1}, 1, Options{
		LeaseTimeout:      5 * time.Second,
		HeartbeatInterval: 30 * time.Millisecond,
		HeartbeatMisses:   100,
		MaxAttempts:       3,
	})
	workerDone := make(chan struct{})
	go runPoisonSensitiveWorker(m, eng, workerDone)

	rng := rand.New(rand.NewSource(91))
	seqs := make([]seq.Sequence, 40)
	for i := range seqs {
		name := "cand"
		if i == 7 {
			name = "poison"
		}
		seqs[i] = seq.Random(rng, name, 60, seq.YeastComposition())
	}
	results, err := m.EvaluateAll(seqs)
	if err != nil {
		t.Fatal(err)
	}
	mates := 0
	for i, r := range results {
		if i == 7 {
			if !errors.Is(r.Err, ErrTaskAbandoned) || r.Attempts != 3 {
				t.Errorf("poison task: Err = %v after %d attempts, want ErrTaskAbandoned after 3", r.Err, r.Attempts)
			}
			continue
		}
		if r.Err != nil || r.Attempts > 2 {
			t.Errorf("task %d: Err = %v after %d attempts, want done within 2", i, r.Err, r.Attempts)
		}
		if r.Attempts == 2 {
			mates++
		}
		if want := eng.Score(seqs[i], 0, 1); r.TargetScore != want {
			t.Errorf("task %d: score %f != local %f", i, r.TargetScore, want)
		}
	}
	if mates == 0 {
		t.Error("the poison task had no chunk-mates: the round never exercised a shared chunk")
	}
	if st := m.Stats(); st.TasksQuarantined != 1 {
		t.Errorf("stats report %d quarantined tasks, want 1", st.TasksQuarantined)
	}
	m.Close()
	join(t, workerDone, "poison-sensitive worker")
}

// TestRoundScopedRetentionAndCounters runs a five-generation design by
// hand on a one-worker fleet: every child carries its parents as hints,
// and every parent was evaluated by the same worker a round earlier. A
// generation reaches that worker in several chunks, so each round's
// DeltaQueries equals its population only if the second and later
// chunks still find last round's parents. The same run checks that the
// worker's cache counters arrive at all, and what they say: a crossover
// child's tail used to come out of the worker's window cache (this test
// once asserted WindowHits > 0 for that reason); it is now lifted from
// the second parent the chunk names, which shows as DeltaReusedWindows
// covering all but the w-1 windows at each cut while the window table
// sees no traffic after generation 0.
func TestRoundScopedRetentionAndCounters(t *testing.T) {
	_, eng := setupEngine(t)
	m := startMasterOpts(t, []int{1, 2}, 1, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go RunWorkerLoop(ctx, m.Addr(), WorkerOptions{})
	waitWorkers(t, m, 1)

	const pop, length = 16, 90
	w := eng.Index().Config().Window
	rng := rand.New(rand.NewSource(17))
	sampler := seq.NewSampler(seq.YeastComposition())
	gen := randomSeqs(18, pop, length)
	hints, second := map[string]string{}, map[string]string{}
	for g := 0; g < 5; g++ {
		before := m.Stats()
		evalCtx := cluster.WithSecondParents(cluster.WithParentHints(context.Background(), hints), second)
		results, err := m.EvaluateAllContext(evalCtx, gen)
		if err != nil {
			t.Fatal(err)
		}
		verifyScores(t, eng, gen, results)
		st := m.Stats()
		if chunks := st.ChunksDispatched - before.ChunksDispatched; chunks < 3 || chunks >= pop {
			t.Fatalf("generation %d went out in %d chunks, want several but fewer than %d", g, chunks, pop)
		}
		if got := st.DeltaQueries - before.DeltaQueries; got != int64(len(hints)) {
			t.Fatalf("generation %d: %d delta builds for %d children of retained parents", g, got, len(hints))
		}
		if lifted, least := st.DeltaReusedWindows-before.DeltaReusedWindows, int64(len(second)*(length-w+1-(w-1))); lifted < least {
			t.Fatalf("generation %d: %d windows lifted, want at least %d for %d crossover children", g, lifted, least, len(second))
		}
		if lookups := st.WindowHits + st.WindowMisses - before.WindowHits - before.WindowMisses; g > 0 && lookups != 0 {
			t.Fatalf("generation %d: %d window-table lookups with every parent retained", g, lookups)
		}
		next := make([]seq.Sequence, pop)
		hints, second = make(map[string]string, pop), make(map[string]string, pop/2)
		for i, parent := range gen {
			// Point mutants, and crossover children whose second half was
			// another candidate's a round ago.
			next[i] = seq.Mutate(rng, parent, 0.04, sampler)
			if i%2 == 1 {
				next[i], _ = seq.Crossover(rng, parent, gen[i-1], 10)
				second[next[i].Residues()] = gen[i-1].Residues()
			}
			hints[next[i].Residues()] = parent.Residues()
		}
		if len(hints) != pop {
			t.Fatal("mutation produced duplicate children; pick another seed")
		}
		gen = next
	}
	st := m.Stats()
	if st.WindowMisses == 0 || st.DeltaQueries == 0 || st.DeltaReusedWindows == 0 {
		t.Errorf("remote cache counters after a 5-generation design: %+v", st)
	}
	if st.TasksDispatched != 5*pop || st.TasksCompleted != 5*pop {
		t.Errorf("%d tasks dispatched, %d completed, want %d each", st.TasksDispatched, st.TasksCompleted, 5*pop)
	}
}

// TestCancelledRoundAddsNoCacheCounters: the counters riding on a
// cancelled round's late results are dropped with the results.
func TestCancelledRoundAddsNoCacheCounters(t *testing.T) {
	_, eng := setupEngine(t)
	m := startMasterOpts(t, []int{1}, 1, Options{
		LeaseTimeout:      time.Minute,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatMisses:   200,
	})
	pw, err := dialProto(m.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pw.close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	roundDone := make(chan roundResult, 1)
	go func() {
		results, err := m.EvaluateAllContext(ctx, randomSeqs(43, 4, 100))
		roundDone <- roundResult{results, err}
	}()
	held, err := pw.next(requestMsg{})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if r := waitRound(t, roundDone); !errors.Is(r.err, context.Canceled) {
		t.Fatalf("cancelled round returned %v", r.err)
	}
	late := pw.result(eng, held)
	late.Cache = cacheCounters{WindowHits: 5, WindowMisses: 7, DeltaQueries: 2, DeltaReusedWindows: 90}
	if err := pw.enc.Encode(late); err != nil {
		t.Fatal(err)
	}
	waitStat(t, "results dropped", func() int64 { return m.Stats().ResultsDropped }, int64(len(held.Tasks)))
	st := m.Stats()
	if st.WindowHits+st.WindowMisses+st.DeltaQueries+st.DeltaReusedWindows != 0 {
		t.Errorf("a cancelled round's late results moved the cache counters: %+v", st)
	}
	if st.TasksCompleted != 0 {
		t.Errorf("%d tasks completed in a cancelled round", st.TasksCompleted)
	}
}

// fakeMaster accepts one worker connection, broadcasts setup, reads the
// first work request and answers it with reply.
func fakeMaster(t *testing.T, setup Setup, reply taskMsg) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
		enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
		if enc.Encode(setup) != nil {
			return
		}
		var req requestMsg
		if dec.Decode(&req) != nil {
			return
		}
		if enc.Encode(reply) != nil {
			return
		}
		_ = dec.Decode(&req) // hold the connection until the worker reacts
	}()
	return ln.Addr().String()
}

// TestWorkerRejectsOtherProtocolVersion: a worker that meets a master of
// another protocol version says so and stops, reconnect loop included.
func TestWorkerRejectsOtherProtocolVersion(t *testing.T) {
	_, eng := setupEngine(t)
	setup := NewSetup(eng, 0, []int{1}, 1)
	// The protocol this one replaced (3: no Keep), and whatever comes next.
	for _, v := range []int{ProtocolVersion - 1, ProtocolVersion + 1} {
		setup.ProtocolVersion = v
		_, err := RunWorkerConn(context.Background(), fakeMaster(t, setup, taskMsg{End: true}), WorkerOptions{})
		if !errors.Is(err, ErrProtocolVersion) {
			t.Fatalf("RunWorkerConn against protocol %d: %v, want ErrProtocolVersion", v, err)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := RunWorkerLoop(context.Background(), fakeMaster(t, setup, taskMsg{End: true}),
			WorkerOptions{ReconnectMin: time.Millisecond, ReconnectMax: 5 * time.Millisecond})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrProtocolVersion) {
			t.Fatalf("RunWorkerLoop: %v, want ErrProtocolVersion", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunWorkerLoop kept reconnecting to a master of another protocol version")
	}
}

// TestWorkerRejectsImpossibleChunks: a chunk no master of this protocol
// could have sent costs the connection, before anything is evaluated.
func TestWorkerRejectsImpossibleChunks(t *testing.T) {
	pr, eng := setupEngine(t)
	setup := NewSetup(eng, 0, []int{1}, 1)
	setup.ProtocolVersion = ProtocolVersion
	longest := 0
	for _, p := range pr.Proteins {
		longest = max(longest, p.Len())
	}
	ok := randomSeqs(95, 3, 80)
	cand := func(i int, residues string) candidate {
		return candidate{Index: i, Attempt: 1, Name: "cand", Residues: residues}
	}
	cases := map[string]taskMsg{
		"more tasks than the round holds": {Round: 1, RoundSize: 2,
			Tasks: []candidate{cand(0, ok[0].Residues()), cand(1, ok[1].Residues()), cand(2, ok[2].Residues())}},
		"residues beyond the bound": {Round: 1, RoundSize: 1,
			Tasks: []candidate{cand(0, strings.Repeat("A", residueBoundFactor*longest+1))}},
		"parent beyond the bound": {Round: 1, RoundSize: 1,
			Tasks: []candidate{{Index: 0, Attempt: 1, Name: "cand", Residues: ok[0].Residues(),
				Parent: strings.Repeat("A", residueBoundFactor*longest+1)}}},
		"second parent beyond the bound": {Round: 1, RoundSize: 1,
			Tasks: []candidate{{Index: 0, Attempt: 1, Name: "cand", Residues: ok[0].Residues(),
				Parent: ok[1].Residues(), ParentB: strings.Repeat("A", residueBoundFactor*longest+1)}}},
		"not a protein": {Round: 1, RoundSize: 1, Tasks: []candidate{cand(0, "NOT A PROTEIN 123")}},
		"kept member beyond the bound": {Round: 1, RoundSize: 1, GenAware: true,
			Tasks: []candidate{cand(0, ok[0].Residues())}, Keep: []string{strings.Repeat("A", residueBoundFactor*longest+1)}},
		"more kept members than the round holds": {Round: 1, RoundSize: 1, GenAware: true,
			Tasks: []candidate{cand(0, ok[0].Residues())}, Keep: []string{ok[1].Residues(), ok[2].Residues()}},
		"kept members without generation awareness": {Round: 1, RoundSize: 1,
			Tasks: []candidate{cand(0, ok[0].Residues())}, Keep: []string{ok[1].Residues()}},
	}
	for name, msg := range cases {
		n, err := RunWorkerConn(context.Background(), fakeMaster(t, setup, msg), WorkerOptions{})
		if err == nil || !strings.Contains(err.Error(), "bad chunk") || n != 0 {
			t.Errorf("%s: worker processed %d tasks, err = %v; want a bad-chunk error", name, n, err)
		}
	}
}

// TestMasterDropsOversizedResults: a peer that answers a lease with more
// results than it was leased, score vectors of the wrong length, or a
// message past its byte budget loses its connection — the tasks it held
// go back to the queue and the round completes on an honest worker.
func TestMasterDropsOversizedResults(t *testing.T) {
	_, eng := setupEngine(t)
	forge := map[string]func(honest requestMsg) requestMsg{
		"more results than leased": func(h requestMsg) requestMsg {
			for len(h.Results) <= 8 {
				h.Results = append(h.Results, h.Results[0])
			}
			return h
		},
		"wrong score count": func(h requestMsg) requestMsg {
			h.Results[0].NonTarget = append(h.Results[0].NonTarget, 0.5)
			return h
		},
		"past the byte budget": func(h requestMsg) requestMsg {
			h.Results[0].NonTarget = make([]float64, 1<<20)
			for i := range h.Results[0].NonTarget {
				h.Results[0].NonTarget[i] = 1 / float64(i+3) // nine bytes each on the wire
			}
			return h
		},
	}
	for name, mutate := range forge {
		m := startMasterOpts(t, []int{1, 2}, 1, Options{
			LeaseTimeout:      5 * time.Second,
			HeartbeatInterval: 50 * time.Millisecond,
			HeartbeatMisses:   100,
		})
		liar, err := dialProto(m.Addr(), nil)
		if err != nil {
			t.Fatal(err)
		}
		seqs := randomSeqs(96, 6, 100)
		roundDone := make(chan roundResult, 1)
		go func() {
			results, err := m.EvaluateAll(seqs)
			roundDone <- roundResult{results, err}
		}()
		held, err := liar.next(requestMsg{})
		if err != nil {
			t.Fatal(err)
		}
		// The master hangs up mid-message on the oversized one, so the
		// send itself may fail; the disconnect is what is under test.
		_ = liar.enc.Encode(mutate(liar.result(eng, held)))
		waitStat(t, name+": disconnects", func() int64 { return m.Stats().WorkerDisconnects }, 1)
		if st := m.Stats(); st.TasksCompleted != 0 {
			t.Errorf("%s: master accepted %d results from the message", name, st.TasksCompleted)
		}
		liar.close()

		healthyDone := make(chan struct{})
		go func() { defer close(healthyDone); RunWorker(m.Addr()) }()
		r := waitRound(t, roundDone)
		if r.err != nil {
			t.Fatalf("%s: %v", name, r.err)
		}
		verifyScores(t, eng, seqs, r.results)
		for _, c := range held.Tasks {
			if got := r.results[c.Index].Attempts; got != 2 {
				t.Errorf("%s: task %d held by the dropped peer finished in %d attempts, want 2", name, c.Index, got)
			}
		}
		m.Close()
		join(t, healthyDone, "healthy worker")
	}
}
