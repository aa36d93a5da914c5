package netcluster

// Tests of lineage-affine leasing: which tasks a worker is offered first,
// the steal that keeps an idle worker busy, the members a worker keeps
// retained across rounds, and Stats being settled when a round returns.

import (
	"context"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/seq"
)

// TestPickPrefersHomeThenOrphansThenSteals drains hand-built rounds for
// worker w, one pickLocked(chunkSize) at a time, and checks the order the
// tasks leave in: least loss to w first, ties in queue order.
func TestPickPrefersHomeThenOrphansThenSteals(t *testing.T) {
	const (
		onW1 = "AAAAAAAAAA" // homed on w
		onW2 = "CCCCCCCCCC"
		onX1 = "DDDDDDDDDD" // homed on x
		onX2 = "EEEEEEEEEE"
		dead = "FFFFFFFFFF" // homed on a connection that has closed
		lost = "GGGGGGGGGG" // no home on record
	)
	w, x, gone := &workerConn{}, &workerConn{}, &workerConn{}
	home := map[string]*workerConn{onW1: w, onW2: w, onX1: x, onX2: x, dead: gone}
	live := map[*workerConn]struct{}{w: {}, x: {}}

	type cand struct {
		child, parent, second string
		attempts              int
	}
	cases := []struct {
		name    string
		queue   []cand
		workers int
		want    [][]int // the chunks w is leased, as task indices
	}{
		{"both parents on w, then nobody's, then x's", []cand{
			{child: "DDDDDDDDHH", parent: onX1},
			{child: "HHHHHHHHHH"},
			{child: "AAAAACCCCC", parent: onW1, second: onW2},
			{child: "AAAAAAAAAH", parent: onW1},
		}, 1, [][]int{{2, 3}, {1}, {0}}},
		{"a parent on each side is home to both: queue order, after w's own", []cand{
			{child: "DDDDDDDAAA", parent: onX1, second: onW1},
			{child: "AAAAAAAAAH", parent: onW1},
			{child: "AAAAAAADDD", parent: onW1, second: onX1},
		}, 2, [][]int{{1}, {0}, {2}}},
		{"with nothing of its own left, w takes what costs least to move", []cand{
			{child: "DDDDDEEEEE", parent: onX1, second: onX2}, // both on x
			{child: "DDDDDDDDDH", parent: onX1},               // one on x
			{child: "EEEEEEEAAA", parent: onX2, second: onW1}, // one each
		}, 2, [][]int{{2}, {1}, {0}}},
		{"an unknown home is nobody's", []cand{
			{child: "DDDDDDDDDH", parent: onX1},
			{child: "GGGGGGGGGH", parent: lost},
		}, 2, [][]int{{1}, {0}}},
		{"a home on a closed connection is nobody's", []cand{
			{child: "EEEEEEEEEH", parent: onX2},
			{child: "FFFFFFFFFH", parent: dead, second: lost},
		}, 2, [][]int{{1}, {0}}},
		{"a re-issued task at the head travels alone, whoever's it is", []cand{
			{child: "DDDDDDDDDH", parent: onX1, attempts: 1},
			{child: "AAAAAAAAAH", parent: onW1},
			{child: "CCCCCCCCCH", parent: onW2},
		}, 1, [][]int{{0}, {1}, {2}}},
		{"a re-issued task in the middle waits for the head and joins no chunk", []cand{
			{child: "DDDDDDDDDH", parent: onX1},
			{child: "AAAAAAAAAH", parent: onW1},
			{child: "CCCCCCCCCH", parent: onW2, attempts: 1},
			{child: "AAAAAAAAHH", parent: onW1},
			{child: "HHHHHHHHHH"},
			{child: "CCCCCCCCHH", parent: onW2},
		}, 1, [][]int{{1, 3}, {5}, {4}, {0}, {2}}},
	}
	for _, c := range cases {
		r := &round{seqs: make([]seq.Sequence, len(c.queue))}
		hints, second := map[string]string{}, map[string]string{}
		for i, q := range c.queue {
			r.seqs[i] = seq.MustNew("cand", q.child)
			if q.parent != "" {
				hints[q.child] = q.parent
			}
			if q.second != "" {
				second[q.child] = q.second
			}
		}
		pruned := r.plan(hints, second, home, live)
		if _, kept := pruned[dead]; kept || len(pruned) > 2*len(c.queue) {
			t.Errorf("%s: home pruned to %d entries (closed connection kept: %v) for %d tasks", c.name, len(pruned), kept, len(c.queue))
		}
		for i, q := range c.queue {
			r.tasks[i].attempts = q.attempts
		}
		r.queue = append([]*task(nil), r.tasks...)
		var got [][]int
		for len(r.queue) > 0 {
			var chunk []int
			for _, tk := range r.pickLocked(w, chunkSize(r.queue, c.workers)) {
				chunk = append(chunk, tk.index)
			}
			got = append(got, chunk)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: w was leased %v, want %v", c.name, got, c.want)
		}
	}
}

// TestIdleWorkerStealsWhenAllHomesAreElsewhere: every parent of a round
// is homed on worker a, because a alone served the round before. Worker
// b, which holds nothing, still takes at least a third of the round and
// the round finishes. Both workers are scripted and take turns, and each
// turn starts once the master has caught up with the one before, so the
// split does not depend on the machine.
func TestIdleWorkerStealsWhenAllHomesAreElsewhere(t *testing.T) {
	_, eng := setupEngine(t)
	m := startMasterOpts(t, []int{1}, 1, Options{})
	const pop = 40
	recv := func(pw *protoWorker) taskMsg {
		t.Helper()
		tk, err := pw.recv()
		if err != nil {
			t.Fatal(err)
		}
		return tk
	}
	send := func(pw *protoWorker, req requestMsg) {
		t.Helper()
		if err := pw.enc.Encode(req); err != nil {
			t.Fatal(err)
		}
	}
	evaluate := func(gen []seq.Sequence, hints map[string]string) <-chan roundResult {
		done := make(chan roundResult, 1)
		go func() {
			results, err := m.EvaluateAllContext(cluster.WithParentHints(context.Background(), hints), gen)
			done <- roundResult{results, err}
		}()
		return done
	}

	a, err := dialProto(m.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.close()
	parents := randomSeqs(71, pop, 80)
	first := evaluate(parents, map[string]string{})
	send(a, requestMsg{})
	for leased := 0; leased < pop; {
		tk := recv(a)
		leased += len(tk.Tasks)
		send(a, a.result(eng, tk)) // the last result leaves a waiting for the next round's work
	}
	if r := waitRound(t, first); r.err != nil {
		t.Fatal(r.err)
	}

	b, err := dialProto(m.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	send(b, requestMsg{})
	waitWorkers(t, m, 2)
	children := make([]seq.Sequence, pop)
	hints := make(map[string]string, pop)
	for i, p := range parents {
		res := []byte(p.Residues())
		res[i%len(res)] = "AC"[i%2]
		children[i] = seq.MustNew("cand", string(res))
		hints[children[i].Residues()] = p.Residues()
	}
	second := evaluate(children, hints)
	// A worker is leased its next chunk by its own connection's handler,
	// once that has read the worker's results. settle waits until every
	// result sent has been read and answered — each worker holds all it
	// may, or the queue is empty — so whose turn it is decides who gets
	// which chunk, and a worker is never left waiting for a chunk the
	// other one's handler took first.
	answered := int64(pop)
	settle := func() {
		t.Helper()
		waitStat(t, "results taken", func() int64 { return m.Stats().TasksCompleted }, answered)
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
			m.mu.Lock()
			settled := m.cur == nil || len(m.cur.queue) == 0
			if !settled {
				settled = true
				for w := range m.conns {
					settled = settled && len(w.leases) == maxLeases
				}
			}
			m.mu.Unlock()
			if settled {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("the master never leased its workers all they may hold")
			}
		}
	}
	took := map[*protoWorker]int{}
	var last [2]requestMsg
	for leased, turn := 0, 0; leased < pop; turn++ {
		pw := []*protoWorker{a, b}[turn%2]
		settle()
		if turn >= 2 {
			send(pw, last[turn%2])
			answered += int64(len(last[turn%2].Results))
		}
		tk := recv(pw)
		for _, c := range tk.Tasks {
			if c.Parent == "" {
				t.Fatalf("task %d went out without its parent", c.Index)
			}
		}
		leased += len(tk.Tasks)
		took[pw] += len(tk.Tasks)
		last[turn%2] = pw.result(eng, tk)
	}
	send(a, last[0])
	send(b, last[1])
	r := waitRound(t, second)
	if r.err != nil {
		t.Fatal(r.err)
	}
	verifyScores(t, eng, children, r.results)
	if took[a]+took[b] != pop || 3*took[b] < pop {
		t.Errorf("the worker holding no parent took %d of %d tasks (the other %d), want at least a third", took[b], pop, took[a])
	}
}

// TestKeepRetainsSurvivorAcrossRounds: a member evaluated in round 1 and
// answered by the caller's cache in rounds 2 and 3 — hinted, not sent —
// is still a delta parent in round 4, because its worker was told to keep
// it. When rounds 2 and 3 do not name it, the worker drops it and the
// same child is a batch build.
func TestKeepRetainsSurvivorAcrossRounds(t *testing.T) {
	m := startMasterOpts(t, []int{1}, 1, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go RunWorkerLoop(ctx, m.Addr(), WorkerOptions{})
	waitWorkers(t, m, 1)

	seed := int64(300)
	for _, named := range []bool{true, false} {
		round := func(gen []seq.Sequence, hints map[string]string) {
			t.Helper()
			if _, err := m.EvaluateAllContext(cluster.WithParentHints(context.Background(), hints), gen); err != nil {
				t.Fatal(err)
			}
		}
		seed += 10
		gen := randomSeqs(seed, 6, 90)
		survivor := gen[0].Residues()
		round(gen, map[string]string{})
		for g := int64(1); g <= 2; g++ {
			hints := map[string]string{}
			if named {
				hints[survivor] = survivor
			}
			round(randomSeqs(seed+g, 6, 90), hints)
		}
		res := []byte(survivor)
		res[45] = "AC"[btoi(res[45] == 'A')]
		child := seq.MustNew("cand", string(res))
		before := m.Stats()
		round([]seq.Sequence{child}, map[string]string{child.Residues(): survivor})
		if got, want := m.Stats().DeltaQueries-before.DeltaQueries, int64(btoi(named)); got != want {
			t.Errorf("survivor named in rounds 2-3: %v; its child took %d delta builds in round 4, want %d", named, got, want)
		}
	}
}

// TestKeepCapDropsTheSameMembersAndTheirHomes: a round much smaller than
// the population can tell a worker to keep only as many members as it has
// tasks. Which ones is fixed (residue order), and a member that does not
// fit loses its home: the worker drops it after this round, so its
// children must not be routed there.
func TestKeepCapDropsTheSameMembersAndTheirHomes(t *testing.T) {
	w := &workerConn{}
	live := map[*workerConn]struct{}{w: {}}
	evaluated := randomSeqs(91, 2, 30)
	survivors := randomSeqs(92, 7, 30)
	home, hints := map[string]*workerConn{}, map[string]string{}
	var names []string
	for _, s := range survivors {
		home[s.Residues()] = w
		hints[s.Residues()] = s.Residues()
		names = append(names, s.Residues())
	}
	sort.Strings(names)
	for _, s := range evaluated {
		hints[s.Residues()] = names[len(names)-1] // a dropped member is still this round's parent
	}
	for i := 0; i < 20; i++ {
		r := &round{seqs: evaluated}
		pruned := r.plan(hints, nil, home, live)
		if !reflect.DeepEqual(r.keep[w], names[:2]) {
			t.Fatalf("pass %d: kept %v, want the first two of %v", i, r.keep[w], names)
		}
		if r.tasks[0].homes[0] != w {
			t.Errorf("pass %d: this round's parent is not homed on the worker that still retains it", i)
		}
		for k, member := range names {
			if _, homed := pruned[member]; homed != (k < 2) {
				t.Errorf("pass %d: member %d of 7 has a home after the round: %v", i, k, homed)
			}
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestStatsSettledWhenRoundReturns: what a round's last chunk adds to
// Stats is there when EvaluateAllContext returns — core and the
// benchmark harness snapshot Stats right after it. One-task rounds make
// every chunk a last chunk.
func TestStatsSettledWhenRoundReturns(t *testing.T) {
	_, eng := setupEngine(t)
	m := startMasterOpts(t, []int{1}, 1, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go RunWorkerLoop(ctx, m.Addr(), WorkerOptions{})
	waitWorkers(t, m, 1)

	const rounds, length = 300, 60
	windows := int64(length - eng.Index().Config().Window + 1)
	for i, s := range randomSeqs(57, rounds, length) {
		before := m.Stats()
		if _, err := m.EvaluateAll([]seq.Sequence{s}); err != nil {
			t.Fatal(err)
		}
		st := m.Stats()
		if st.TasksCompleted != int64(i+1) {
			t.Fatalf("round %d returned with %d tasks completed in Stats, want %d", i, st.TasksCompleted, i+1)
		}
		if lookups := st.WindowHits + st.WindowMisses - before.WindowHits - before.WindowMisses; lookups != windows {
			t.Fatalf("round %d returned with %d window lookups of its chunk in Stats, want %d", i, lookups, windows)
		}
		if st.ServiceEWMANS == 0 {
			t.Fatalf("round %d returned before its service time was observed", i)
		}
	}
}
