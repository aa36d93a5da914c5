package netcluster

// Tests of the profiles that travel with lineage, from the hostile side:
// what a worker can put in a result's Profile, and what that costs whom.

import (
	"context"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/pipe"
	"repro/internal/seq"
	"repro/internal/simindex"
)

// TestBadProfileCostsOnlyItsSender: a scripted worker serves a
// generation-aware round honestly but for the profiles its results
// carry. One above maxProfileBytes is a protocol violation: the master
// hangs up on the sender, accepts nothing from the message, and the round
// completes elsewhere. Bytes that are no profile at all are within the
// protocol as far as the master can tell — it never opens one — so they
// are kept and shipped with the children; the honest worker that
// receives them leaves them out, searches those children as if nothing
// had been shipped, returns the right scores, and keeps its connection.
func TestBadProfileCostsOnlyItsSender(t *testing.T) {
	_, eng := setupEngine(t)
	const pop = 12
	cases := []struct {
		name        string
		profile     []byte
		disconnects int64 // of the scripted worker, on its first result message
	}{
		{"one byte past the bound", make([]byte, maxProfileBytes+1), 1},
		{"not a profile", []byte{9, 200, 200, 200, 1, 0}, 0},
	}
	for _, c := range cases {
		m := startMasterOpts(t, []int{1}, 1, Options{HeartbeatInterval: 20 * time.Millisecond})
		evaluate := func(gen []seq.Sequence, hints map[string]string) <-chan roundResult {
			done := make(chan roundResult, 1)
			go func() {
				results, err := m.EvaluateAllContext(cluster.WithParentHints(context.Background(), hints), gen)
				done <- roundResult{results, err}
			}()
			return done
		}
		liar, err := dialProto(m.Addr(), nil)
		if err != nil {
			t.Fatal(err)
		}
		parents := randomSeqs(87, pop, 100)
		first := evaluate(parents, map[string]string{})
		req := requestMsg{}
		for served := 0; served < pop && c.disconnects == 0; {
			tk, err := liar.next(req)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			req = liar.result(eng, tk)
			for i := range req.Results {
				req.Results[i].Profile = c.profile
			}
			served += len(tk.Tasks)
		}
		if c.disconnects > 0 {
			tk, err := liar.next(req)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			req = liar.result(eng, tk)
			req.Results[0].Profile = c.profile
		}
		_ = liar.enc.Encode(req) // the master may hang up mid-message
		waitStat(t, c.name+": disconnects", func() int64 { return m.Stats().WorkerDisconnects }, c.disconnects)
		if st := m.Stats(); c.disconnects > 0 && st.TasksCompleted != 0 {
			t.Errorf("%s: the master accepted %d results from the message", c.name, st.TasksCompleted)
		}

		ctx, cancel := context.WithCancel(context.Background())
		go RunWorkerLoop(ctx, m.Addr(), WorkerOptions{})
		if r := waitRound(t, first); r.err != nil {
			t.Fatalf("%s: %v", c.name, r.err)
		} else {
			verifyScores(t, eng, parents, r.results)
		}
		liar.close()
		waitStat(t, c.name+": disconnects", func() int64 { return m.Stats().WorkerDisconnects }, 1)

		// The next generation on the honest worker alone. What the scripted
		// worker's results said of the parents' profiles is what is shipped.
		before := m.Stats()
		children, hints := mutants(parents)
		r := waitRound(t, evaluate(children, hints))
		if r.err != nil {
			t.Fatalf("%s: %v", c.name, r.err)
		}
		verifyScores(t, eng, children, r.results)
		for _, res := range r.results {
			if res.Attempts != 1 {
				t.Errorf("%s: child %d took %d attempts", c.name, res.Index, res.Attempts)
			}
		}
		st := m.Stats()
		if st.WorkerDisconnects != 1 || st.TasksReissued != before.TasksReissued {
			t.Errorf("%s: the honest worker paid: %d disconnects, %d tasks re-issued", c.name, st.WorkerDisconnects, st.TasksReissued-before.TasksReissued)
		}
		if c.disconnects == 0 {
			if shipped, deltas := st.ParentsShipped-before.ParentsShipped, st.DeltaQueries-before.DeltaQueries; shipped != pop || deltas != 0 {
				t.Errorf("%s: %d parents shipped and %d children delta-built from them, want %d and none", c.name, shipped, deltas, pop)
			}
		}
		cancel()
		m.Close()
	}
}

// TestProfileTooLargeForTheFormIsNotSent: a worker leaves a result's
// Profile empty when the wire form would exceed what the master accepts,
// and the master then has nothing to ship: the candidate's children,
// leased elsewhere, search as they did before profiles travelled.
func TestProfileTooLargeForTheFormIsNotSent(t *testing.T) {
	rows := func(n int) simindex.FlatProfile {
		p := simindex.FlatProfile{Offsets: []int32{0}}
		for id := 0; id < n; id++ {
			p.IDs = append(p.IDs, int32(id))
			p.Pos = append(p.Pos, int32(id%7))
			p.Score = append(p.Score, 40)
			p.Offsets = append(p.Offsets, int32(len(p.Pos)))
		}
		return p
	}
	query := func(p simindex.FlatProfile) *pipe.Query {
		return pipe.DeltaParent(simindex.DeltaParent{Seq: seq.MustNew("q", "ACDEFGHIKLMNPQRSTVWYACDEFGHIKL"), Prof: p})
	}
	small := rows(200)
	if b := wireProfile(query(small)); len(b) == 0 || len(b) > 4*200+2 {
		t.Errorf("a 200-row profile went out as %d bytes", len(b))
	} else if back, err := simindex.ParseWire(b, 200, 7); err != nil || len(back.IDs) != 200 {
		t.Errorf("what went out parses as %d rows, %v", len(back.IDs), err)
	}
	large := rows(maxProfileBytes / 4) // four bytes a row, and the count in front
	if b := large.AppendWire(nil); len(b) <= maxProfileBytes {
		t.Fatalf("the large profile is only %d bytes on the wire", len(b))
	}
	if b := wireProfile(query(large)); b != nil {
		t.Errorf("a profile past the bound went out as %d bytes", len(b))
	}
	if b := wireProfile(nil); b != nil {
		t.Errorf("a candidate the pool does not retain went out with %d bytes of profile", len(b))
	}

	// No profile came back for the parents, so none is shipped.
	_, eng := setupEngine(t)
	m := startMasterOpts(t, []int{1}, 1, Options{HeartbeatInterval: 20 * time.Millisecond})
	silent, err := dialProto(m.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	parents := randomSeqs(89, 8, 100)
	done := make(chan roundResult, 1)
	go func() {
		results, err := m.EvaluateAllContext(cluster.WithParentHints(context.Background(), map[string]string{}), parents)
		done <- roundResult{results, err}
	}()
	req := requestMsg{}
	for served := 0; served < len(parents); {
		tk, err := silent.next(req)
		if err != nil {
			t.Fatal(err)
		}
		req = silent.result(eng, tk) // scores only
		served += len(tk.Tasks)
	}
	if err := silent.enc.Encode(req); err != nil {
		t.Fatal(err)
	}
	if r := waitRound(t, done); r.err != nil {
		t.Fatal(r.err)
	}
	silent.close()
	waitStat(t, "disconnects", func() int64 { return m.Stats().WorkerDisconnects }, 1)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go RunWorkerLoop(ctx, m.Addr(), WorkerOptions{})
	children, hints := mutants(parents)
	results, err := m.EvaluateAllContext(cluster.WithParentHints(context.Background(), hints), children)
	if err != nil {
		t.Fatal(err)
	}
	verifyScores(t, eng, children, results)
	if st := m.Stats(); st.ParentsShipped != 0 || st.DeltaQueries != 0 {
		t.Errorf("%d parents shipped and %d delta builds with no profile ever returned", st.ParentsShipped, st.DeltaQueries)
	}
}
