package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/jobstore"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/server"
)

// TestStrategyJobsEndToEnd runs a beam and an anneal design as insipsd
// jobs: the knob is accepted at submit, the journal records carry the
// strategy tag and its per-strategy counters, and the rendered job JSON
// reports which strategy ran.
func TestStrategyJobsEndToEnd(t *testing.T) {
	pr, _ := fixture(t)
	journalDir := t.TempDir()
	_, ts := newTestServer(t, func(c *server.Config) {
		c.JournalDir = journalDir
		c.CheckpointEvery = 2
	})

	cases := []struct {
		strategy string
		mutate   func(*server.DesignRequest)
		counters func(obs.GenerationRecord) bool
	}{
		{search.StrategyBeam, func(r *server.DesignRequest) {
			r.BeamWidth = 3
			r.BeamExpand = 3
		}, func(rec obs.GenerationRecord) bool {
			return rec.BeamWidth > 0 && rec.BeamUniqueChildren > 0
		}},
		{search.StrategyAnneal, func(r *server.DesignRequest) {
			r.AnnealT0 = 0.05
		}, func(rec obs.GenerationRecord) bool {
			return rec.AnnealTemperature > 0
		}},
	}
	for _, c := range cases {
		req := tinyDesign(pr.Proteins[0].Name(), 4)
		req.Strategy = c.strategy
		c.mutate(&req)
		job := submitJob(t, ts, req)
		done := waitJob(t, ts, job.ID, 60*time.Second, terminal)
		if done.State != server.JobDone {
			t.Fatalf("%s job finished %s (%s), want done", c.strategy, done.State, done.Error)
		}
		if done.Strategy != c.strategy {
			t.Errorf("%s job JSON reports strategy %q", c.strategy, done.Strategy)
		}
		if done.Sequence == "" || done.Best == nil {
			t.Errorf("%s job missing result: %+v", c.strategy, done)
		}
		recs, err := obs.ReadJournal(obs.JournalPath(filepath.Join(journalDir, job.ID)))
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			t.Fatalf("%s job journaled no generations", c.strategy)
		}
		for _, rec := range recs {
			if rec.Strategy != c.strategy {
				t.Fatalf("%s job journal record tagged %q", c.strategy, rec.Strategy)
			}
			if !c.counters(rec) {
				t.Fatalf("%s job gen %d missing strategy counters: %+v", c.strategy, rec.Generation, rec)
			}
		}
		// The checkpoint left behind is tagged too.
		cp, err := obs.LoadCheckpoint(filepath.Join(journalDir, job.ID))
		if err != nil {
			t.Fatal(err)
		}
		if cp.Strategy != c.strategy {
			t.Errorf("%s job checkpoint tagged %q", c.strategy, cp.Strategy)
		}
	}
}

// TestStrategySubmitValidation: unknown strategies and cross-strategy
// knobs are rejected with 400 at submit, before any job is enqueued.
func TestStrategySubmitValidation(t *testing.T) {
	pr, _ := fixture(t)
	_, ts := newTestServer(t, nil)
	target := pr.Proteins[0].Name()

	cases := []struct {
		name    string
		mutate  func(*server.DesignRequest)
		errPart string
	}{
		{"unknown strategy", func(r *server.DesignRequest) { r.Strategy = "tabu" }, "unknown"},
		{"beam knob without beam", func(r *server.DesignRequest) { r.BeamWidth = 4 }, "beam"},
		{"anneal knob on beam", func(r *server.DesignRequest) {
			r.Strategy = search.StrategyBeam
			r.AnnealT0 = 0.5
		}, "anneal"},
		{"removed landscape strategy", func(r *server.DesignRequest) { r.Strategy = "landscape" }, "landscape"},
		{"bad anneal schedule", func(r *server.DesignRequest) {
			r.Strategy = search.StrategyAnneal
			r.AnnealCooling = 1.5
		}, "cooling"},
	}
	for _, c := range cases {
		req := tinyDesign(target, 3)
		c.mutate(&req)
		resp, data := postJSON(t, ts.URL+"/v1/designs", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, resp.StatusCode, data)
			continue
		}
		if !strings.Contains(strings.ToLower(string(data)), c.errPart) {
			t.Errorf("%s: error %s does not mention %q", c.name, data, c.errPart)
		}
	}
}

// TestStrategyMismatchFailsFastAcrossReplicas is the jobstore
// replica-handoff variant of the strategy fingerprint check: a beam job
// is drained mid-run (beam-tagged checkpoint on shared storage), its
// stored request is then altered to resolve as a GA spec — the
// operator-error case the tag exists to catch — and the replica that
// claims the released job must fail it fast with a strategy error
// rather than silently continue the beam checkpoint as a GA.
func TestStrategyMismatchFailsFastAcrossReplicas(t *testing.T) {
	pr, _ := fixture(t)
	req := tinyDesign(pr.Proteins[0].Name(), 14)
	req.MinGenerations = 14
	req.StallGens = 1000
	req.NoFitnessCache = true // keep generations slow enough to interrupt
	req.SeqLen = 80
	req.MaxNonTargets = 4
	req.Strategy = search.StrategyBeam
	req.BeamWidth = 6
	req.BeamExpand = 8

	storeDir, journalDir := t.TempDir(), t.TempDir()
	srvA, tsA := newStoreServer(t, storeDir, journalDir, "replica-a", nil)
	job := submitJob(t, tsA, req)
	waitJob(t, tsA, job.ID, 30*time.Second, func(j server.JobJSON) bool {
		return j.Generations >= 3
	})
	drainCtx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srvA.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	cp, err := obs.LoadCheckpoint(filepath.Join(journalDir, job.ID))
	if err != nil {
		t.Fatal(err)
	}
	if cp.Strategy != search.StrategyBeam {
		t.Fatalf("handoff checkpoint tagged %q, want beam", cp.Strategy)
	}

	// Rewrite the stored request so the next claimant resolves a GA
	// spec. Replica A is drained, so nothing holds the store lock.
	recPath := filepath.Join(storeDir, "jobs", job.ID+".json")
	raw, err := os.ReadFile(recPath)
	if err != nil {
		t.Fatal(err)
	}
	var rec jobstore.Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	var spec map[string]any
	if err := json.Unmarshal(rec.Spec, &spec); err != nil {
		t.Fatal(err)
	}
	delete(spec, "strategy")
	delete(spec, "beam_width")
	delete(spec, "beam_expand")
	rec.Spec, err = json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(recPath, out, 0o644); err != nil {
		t.Fatal(err)
	}

	_, tsB := newStoreServer(t, storeDir, journalDir, "replica-b", nil)
	done := waitJob(t, tsB, job.ID, 30*time.Second, terminal)
	if done.State != server.JobFailed {
		t.Fatalf("mismatched job finished %s, want failed (err %q)", done.State, done.Error)
	}
	if !strings.Contains(done.Error, "strategy") {
		t.Fatalf("failure does not name the strategy mismatch: %q", done.Error)
	}
}

// TestSSEReconnectLastEventID: a reconnecting EventSource sends the
// standard Last-Event-ID header; the stream must resume from the next
// generation, and an explicit ?from= must still win over the header.
func TestSSEReconnectLastEventID(t *testing.T) {
	pr, _ := fixture(t)
	_, ts := newTestServer(t, nil)
	job := submitJob(t, ts, tinyDesign(pr.Proteins[0].Name(), 5))

	// First connection: consume the whole stream, as a client that then
	// drops would have.
	resp, err := http.Get(ts.URL + "/v1/designs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	gens, state := readSSE(t, resp, 30*time.Second)
	resp.Body.Close()
	if state != string(server.JobDone) || len(gens) < 3 {
		t.Fatalf("first stream: state %q, generations %v", state, gens)
	}
	last := gens[len(gens)-1]

	// Each event's SSE id must be its generation — that is what the
	// client echoes back on reconnect.
	ids := sseIDs(t, ts.URL+"/v1/designs/"+job.ID+"/events", nil)
	if len(ids) != len(gens) {
		t.Fatalf("stream carried %d ids for %d generation events", len(ids), len(gens))
	}
	for i, id := range ids {
		if id != gens[i] {
			t.Fatalf("event %d has id %d, generation %d", i, id, gens[i])
		}
	}

	// Reconnect claiming we saw everything up to the midpoint: replay
	// must pick up at mid+1 and cover the tail exactly.
	mid := gens[len(gens)/2]
	hdr := map[string]string{"Last-Event-ID": strconv.Itoa(mid)}
	reGens := sseIDs(t, ts.URL+"/v1/designs/"+job.ID+"/events", hdr)
	if len(reGens) == 0 || reGens[0] != mid+1 || reGens[len(reGens)-1] != last {
		t.Fatalf("reconnect after id %d replayed %v, want [%d..%d]", mid, reGens, mid+1, last)
	}

	// Explicit ?from= beats the header.
	fromGens := sseIDs(t, ts.URL+"/v1/designs/"+job.ID+"/events?from="+strconv.Itoa(last), hdr)
	if len(fromGens) != 1 || fromGens[0] != last {
		t.Fatalf("?from=%d with header replayed %v, want just [%d]", last, fromGens, last)
	}

	// A malformed header is a 400, same contract as bad ?from=.
	reqBad, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/designs/"+job.ID+"/events", nil)
	reqBad.Header.Set("Last-Event-ID", "not-a-number")
	respBad, err := http.DefaultClient.Do(reqBad)
	if err != nil {
		t.Fatal(err)
	}
	respBad.Body.Close()
	if respBad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad Last-Event-ID: status %d, want 400", respBad.StatusCode)
	}
}

// sseIDs opens an event stream with optional headers and returns the
// SSE id of every generation event until the state event.
func sseIDs(t testing.TB, url string, headers map[string]string) []int {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream %s: status %d", url, resp.StatusCode)
	}
	done := make(chan []int, 1)
	go func() {
		var ids []int
		id := -1
		event := ""
		scanner := bufio.NewScanner(resp.Body)
		scanner.Buffer(make([]byte, 0, 1<<20), 1<<20)
		for scanner.Scan() {
			line := scanner.Text()
			switch {
			case strings.HasPrefix(line, "id: "):
				if v, err := strconv.Atoi(strings.TrimPrefix(line, "id: ")); err == nil {
					id = v
				}
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				switch event {
				case "generation":
					ids = append(ids, id)
				case "state":
					done <- ids
					return
				}
			}
		}
		done <- ids
	}()
	select {
	case ids := <-done:
		return ids
	case <-time.After(30 * time.Second):
		t.Fatal("SSE stream did not terminate in time")
		return nil
	}
}
