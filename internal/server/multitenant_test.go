package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/jobstore"
	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/server"
)

// newStoreServer starts a replica of a shared-store deployment: every
// replica opens its own handle on the same store directory and shares
// the journal directory, exactly as separate processes would.
func newStoreServer(t testing.TB, storeDir, journalDir, replicaID string, mutate func(*server.Config)) (*server.Server, *httptest.Server) {
	t.Helper()
	pr, eng := fixture(t)
	store, err := jobstore.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{
		Proteins:        pr.Proteins,
		Graph:           pr.Graph,
		Engines:         []*pipe.Engine{eng},
		Store:           store,
		JournalDir:      journalDir,
		ReplicaID:       replicaID,
		JobLease:        2 * time.Second,
		PollInterval:    20 * time.Millisecond,
		CheckpointEvery: 2,
		QueueWorkers:    1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		// Stop the claim loop before the temp dirs are removed.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
		ts.Close()
	})
	return srv, ts
}

// lastRecordLine returns the last non-empty line of a store's record
// file: the record's current state, as the store reads it.
func lastRecordLine(data []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(data), []byte{'\n'})
	return lines[len(lines)-1]
}

func TestStoreModeLifecycleAcrossReplicas(t *testing.T) {
	pr, _ := fixture(t)
	storeDir, journalDir := t.TempDir(), t.TempDir()
	_, tsA := newStoreServer(t, storeDir, journalDir, "replica-a", nil)
	_, tsB := newStoreServer(t, storeDir, journalDir, "replica-b", nil)

	job := submitJob(t, tsA, tinyDesign(pr.Proteins[0].Name(), 3))
	done := waitJob(t, tsA, job.ID, 30*time.Second, terminal)
	if done.State != server.JobDone {
		t.Fatalf("job finished %s (%s), want done", done.State, done.Error)
	}
	if done.Sequence == "" || done.Best == nil {
		t.Fatalf("terminal job missing result: %+v", done)
	}

	// The peer replica serves the same job from the shared store, even
	// though it may never have run it.
	var fromB server.JobJSON
	resp := getJSON(t, tsB.URL+"/v1/designs/"+job.ID, &fromB)
	if resp.StatusCode != http.StatusOK || fromB.State != server.JobDone {
		t.Fatalf("peer replica: status %d state %s", resp.StatusCode, fromB.State)
	}
	if fromB.Sequence != done.Sequence {
		t.Fatalf("peer replica result differs: %q vs %q", fromB.Sequence, done.Sequence)
	}
	var listB []server.JobJSON
	getJSON(t, tsB.URL+"/v1/designs", &listB)
	if len(listB) != 1 || listB[0].ID != job.ID {
		t.Fatalf("peer listing: %+v", listB)
	}
}

func TestOrphanedJobRecoveredByPeer(t *testing.T) {
	pr, _ := fixture(t)
	storeDir, journalDir := t.TempDir(), t.TempDir()

	// A "dead" replica claims the job and never renews: simulate the
	// kill -9 case at the store level, then bring up a live replica.
	dead, err := jobstore.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(tinyDesign(pr.Proteins[0].Name(), 3))
	rec, err := dead.Create("public", raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := dead.Claim("dead-replica", 50*time.Millisecond, nil); err != nil || !ok {
		t.Fatalf("dead claim: ok=%v err=%v", ok, err)
	}
	time.Sleep(100 * time.Millisecond) // let the lease lapse

	_, ts := newStoreServer(t, storeDir, journalDir, "replica-live", nil)
	done := waitJob(t, ts, rec.ID, 30*time.Second, terminal)
	if done.State != server.JobDone {
		t.Fatalf("recovered job finished %s (%s), want done", done.State, done.Error)
	}
	metrics, _ := http.Get(ts.URL + "/metrics")
	body := readAll(t, metrics)
	if !strings.Contains(body, "insipsd_jobs_recovered_total 1") {
		t.Errorf("metrics missing recovery count:\n%s", grepLines(body, "recovered"))
	}
}

func readAll(t testing.TB, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var b strings.Builder
	if _, err := bufio.NewReader(resp.Body).WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestDrainHandoffResumesBitIdentical is the in-process crash-recovery
// golden test: replica A is drained mid-job (checkpoint + release),
// replica B resumes from the shared journal, and the merged journal must
// agree generation-for-generation — same population hash — with an
// uninterrupted run of the identical request.
func TestDrainHandoffResumesBitIdentical(t *testing.T) {
	pr, _ := fixture(t)
	req := tinyDesign(pr.Proteins[0].Name(), 14)
	req.MinGenerations = 14
	req.StallGens = 1000
	req.NoFitnessCache = true // keep generations slow enough to interrupt
	req.Population = 48
	req.SeqLen = 80
	req.MaxNonTargets = 4

	storeDir, journalDir := t.TempDir(), t.TempDir()
	srvA, tsA := newStoreServer(t, storeDir, journalDir, "replica-a", nil)
	job := submitJob(t, tsA, req)

	// Let the job make progress past at least one checkpoint (every 2
	// generations), then drain A: checkpoint + release handoff.
	waitJob(t, tsA, job.ID, 30*time.Second, func(j server.JobJSON) bool {
		return j.Generations >= 3
	})
	drainCtx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srvA.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	store, err := jobstore.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	recAfterDrain, err := store.Get(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if recAfterDrain.State != jobstore.Pending {
		t.Fatalf("job after drain is %s, want pending (released)", recAfterDrain.State)
	}

	// Replica B claims the released job and resumes it to completion.
	_, tsB := newStoreServer(t, storeDir, journalDir, "replica-b", nil)
	done := waitJob(t, tsB, job.ID, 60*time.Second, terminal)
	if done.State != server.JobDone {
		t.Fatalf("resumed job finished %s (%s), want done", done.State, done.Error)
	}

	// Reference: the same request, never interrupted.
	refJournal := t.TempDir()
	_, tsRef := newTestServer(t, func(c *server.Config) {
		c.JournalDir = refJournal
		c.CheckpointEvery = 2
	})
	refJob := submitJob(t, tsRef, req)
	refDone := waitJob(t, tsRef, refJob.ID, 60*time.Second, terminal)
	if refDone.State != server.JobDone {
		t.Fatalf("reference job finished %s (%s)", refDone.State, refDone.Error)
	}
	if done.Sequence != refDone.Sequence {
		t.Errorf("resumed best sequence differs from uninterrupted run:\n%s\nvs\n%s",
			done.Sequence, refDone.Sequence)
	}

	// The interrupted journal may repeat generations (restart replays
	// from the checkpoint); every record for a generation must agree,
	// and the deduplicated stream must match the reference bit-for-bit
	// on the population hash.
	gotRecs, err := obs.ReadJournal(obs.JournalPath(filepath.Join(journalDir, job.ID)))
	if err != nil {
		t.Fatal(err)
	}
	refRecs, err := obs.ReadJournal(obs.JournalPath(filepath.Join(refJournal, refJob.ID)))
	if err != nil {
		t.Fatal(err)
	}
	byGen := make(map[int]string)
	for _, rec := range gotRecs {
		if prev, ok := byGen[rec.Generation]; ok && prev != rec.PopHash {
			t.Fatalf("generation %d replayed with a different population: %s vs %s",
				rec.Generation, prev, rec.PopHash)
		}
		byGen[rec.Generation] = rec.PopHash
	}
	if len(byGen) != len(refRecs) {
		t.Fatalf("resumed run covered %d generations, reference %d", len(byGen), len(refRecs))
	}
	for _, ref := range refRecs {
		if byGen[ref.Generation] != ref.PopHash {
			t.Fatalf("generation %d: resumed pop hash %s != reference %s",
				ref.Generation, byGen[ref.Generation], ref.PopHash)
		}
	}
}

// TestFairShareNoStarvation floods the cluster with one tenant's jobs
// and checks a light tenant's single job is served ahead of the
// backlog rather than behind all of it.
func TestFairShareNoStarvation(t *testing.T) {
	pr, _ := fixture(t)
	storeDir, journalDir := t.TempDir(), t.TempDir()
	tenants := []server.Tenant{
		{Name: "heavy", Key: "heavy-key"},
		{Name: "light", Key: "light-key"},
	}

	// Seed the backlog before any replica exists, so claims happen in a
	// controlled order once the single worker comes up.
	store, err := jobstore.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(tinyDesign(pr.Proteins[0].Name(), 2))
	const heavyJobs = 6
	for i := 0; i < heavyJobs; i++ {
		if _, err := store.Create("heavy", raw); err != nil {
			t.Fatal(err)
		}
	}
	lightRec, err := store.Create("light", raw)
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newStoreServer(t, storeDir, journalDir, "replica-a", func(c *server.Config) {
		c.Tenants = tenants
		c.QueueWorkers = 1
	})
	get := func(id, key string) server.JobJSON {
		t.Helper()
		req, _ := http.NewRequest("GET", ts.URL+"/v1/designs/"+id, nil)
		req.Header.Set("X-API-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var j server.JobJSON
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return j
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		lj := get(lightRec.ID, "light-key")
		if lj.State.Terminal() {
			if lj.State != server.JobDone {
				t.Fatalf("light job finished %s (%s)", lj.State, lj.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("light tenant's job did not finish")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Fair share (equal weights): the light job must have been claimed
	// near the front, not behind the whole heavy backlog. The WAL
	// records the exact claim order.
	events, err := jobstore.ReadWAL(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	pos, claims := -1, 0
	for _, e := range events {
		if e["event"] != "claim" && e["event"] != "recover" {
			continue
		}
		claims++
		if e["id"] == lightRec.ID && pos < 0 {
			pos = claims
		}
	}
	if pos < 0 {
		t.Fatal("light job never claimed")
	}
	if pos > heavyJobs/2 {
		t.Fatalf("light job starved: claimed %d of %d (WAL order)", pos, claims)
	}
}

func TestTenantAuthRateLimitAndVisibility(t *testing.T) {
	pr, _ := fixture(t)
	tenants := []server.Tenant{
		{Name: "alice", Key: "alice-key", RatePerSec: 0.001, Burst: 3},
		{Name: "bob", Key: "bob-key"},
	}
	_, ts := newTestServer(t, func(c *server.Config) {
		c.Tenants = tenants
	})
	doGet := func(path, key string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest("GET", ts.URL+path, nil)
		if key != "" {
			req.Header.Set("X-API-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// No key and bad key → 401; healthz stays open.
	if resp := doGet("/v1/designs", ""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("no key: status %d, want 401", resp.StatusCode)
	}
	if resp := doGet("/v1/designs", "wrong"); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad key: status %d, want 401", resp.StatusCode)
	}
	if resp := doGet("/healthz", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d, want 200", resp.StatusCode)
	}

	// Bearer form works too.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/designs", nil)
	req.Header.Set("Authorization", "Bearer bob-key")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bearer: status %d, want 200", resp.StatusCode)
	}

	// Alice's bucket holds 3 tokens and refills at ~0/s: the 4th
	// request inside the window is rate limited.
	limited := false
	for i := 0; i < 4; i++ {
		if resp := doGet("/v1/designs", "alice-key"); resp.StatusCode == http.StatusTooManyRequests {
			limited = true
		}
	}
	if !limited {
		t.Fatal("alice was never rate limited after burst exhaustion")
	}

	// Visibility: bob cannot see alice's... alice is limited, so bob
	// submits and a fresh tenant reads. Submit as bob, read as alice
	// (has no tokens left — use a new server interaction is overkill;
	// alice's bucket refills at 0.001/s, so expect 429, which still
	// proves she cannot fetch it). Instead check bob sees his own and
	// the job is hidden from an unauthenticated request.
	body, _ := json.Marshal(tinyDesign(pr.Proteins[0].Name(), 1))
	sreq, _ := http.NewRequest("POST", ts.URL+"/v1/designs", strings.NewReader(string(body)))
	sreq.Header.Set("X-API-Key", "bob-key")
	sresp, err := http.DefaultClient.Do(sreq)
	if err != nil {
		t.Fatal(err)
	}
	var job server.JobJSON
	if err := json.NewDecoder(sresp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusAccepted {
		t.Fatalf("bob submit: status %d", sresp.StatusCode)
	}
	if resp := doGet("/v1/designs/"+job.ID, "bob-key"); resp.StatusCode != http.StatusOK {
		t.Fatalf("bob get own job: status %d", resp.StatusCode)
	}
}

func TestTenantJobVisibilityScoped(t *testing.T) {
	pr, _ := fixture(t)
	tenants := []server.Tenant{
		{Name: "alice", Key: "alice-key"},
		{Name: "bob", Key: "bob-key"},
	}
	_, ts := newTestServer(t, func(c *server.Config) { c.Tenants = tenants })

	body, _ := json.Marshal(tinyDesign(pr.Proteins[0].Name(), 1))
	sreq, _ := http.NewRequest("POST", ts.URL+"/v1/designs", strings.NewReader(string(body)))
	sreq.Header.Set("X-API-Key", "alice-key")
	sresp, err := http.DefaultClient.Do(sreq)
	if err != nil {
		t.Fatal(err)
	}
	var job server.JobJSON
	if err := json.NewDecoder(sresp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()

	for _, path := range []string{
		"/v1/designs/" + job.ID,
		"/v1/designs/" + job.ID + "/progress",
		"/v1/designs/" + job.ID + "/events",
	} {
		req, _ := http.NewRequest("GET", ts.URL+path, nil)
		req.Header.Set("X-API-Key", "bob-key")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("bob %s: status %d, want 404", path, resp.StatusCode)
		}
	}
	lreq, _ := http.NewRequest("GET", ts.URL+"/v1/designs", nil)
	lreq.Header.Set("X-API-Key", "bob-key")
	lresp, err := http.DefaultClient.Do(lreq)
	if err != nil {
		t.Fatal(err)
	}
	var list []server.JobJSON
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if len(list) != 0 {
		t.Errorf("bob sees %d of alice's jobs in the listing", len(list))
	}
}

// TestSSELiveStream follows a local job's event stream end to end:
// per-generation events arrive in order and the stream closes with a
// terminal state event.
func TestSSELiveStream(t *testing.T) {
	pr, _ := fixture(t)
	_, ts := newTestServer(t, nil)
	job := submitJob(t, ts, tinyDesign(pr.Proteins[0].Name(), 4))

	resp, err := http.Get(ts.URL + "/v1/designs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	gens, state := readSSE(t, resp, 30*time.Second)
	if state != string(server.JobDone) {
		t.Fatalf("stream ended with state %q, want done", state)
	}
	if len(gens) == 0 {
		t.Fatal("no generation events on the stream")
	}
	for i := 1; i < len(gens); i++ {
		if gens[i] <= gens[i-1] {
			t.Fatalf("generations out of order: %v", gens)
		}
	}
}

// TestSSETerminalReplayFromPeer checks the store-mode path: a replica
// that never ran the job replays its journal from shared storage and
// terminates the stream with the stored state.
func TestSSETerminalReplayFromPeer(t *testing.T) {
	pr, _ := fixture(t)
	storeDir, journalDir := t.TempDir(), t.TempDir()
	_, tsA := newStoreServer(t, storeDir, journalDir, "replica-a", nil)
	job := submitJob(t, tsA, tinyDesign(pr.Proteins[0].Name(), 3))
	done := waitJob(t, tsA, job.ID, 30*time.Second, terminal)
	if done.State != server.JobDone {
		t.Fatalf("job finished %s", done.State)
	}

	_, tsB := newStoreServer(t, storeDir, journalDir, "replica-b", nil)
	resp, err := http.Get(tsB.URL + "/v1/designs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	gens, state := readSSE(t, resp, 30*time.Second)
	if state != string(server.JobDone) {
		t.Fatalf("peer stream ended with state %q, want done", state)
	}
	if len(gens) == 0 {
		t.Fatal("peer stream replayed no generation events")
	}
}

// readSSE consumes an event stream until the state event (or EOF),
// returning the generation numbers seen and the final state.
func readSSE(t testing.TB, resp *http.Response, timeout time.Duration) ([]int, string) {
	t.Helper()
	type result struct {
		gens  []int
		state string
	}
	ch := make(chan result, 1)
	go func() {
		var res result
		scanner := bufio.NewScanner(resp.Body)
		scanner.Buffer(make([]byte, 0, 1<<20), 1<<20)
		event := ""
		for scanner.Scan() {
			line := scanner.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				data := strings.TrimPrefix(line, "data: ")
				switch event {
				case "generation":
					var rec obs.GenerationRecord
					if err := json.Unmarshal([]byte(data), &rec); err == nil {
						res.gens = append(res.gens, rec.Generation)
					}
				case "state":
					var st struct {
						State string `json:"state"`
					}
					_ = json.Unmarshal([]byte(data), &st)
					res.state = st.State
					ch <- res
					return
				}
			}
		}
		ch <- res
	}()
	select {
	case res := <-ch:
		return res.gens, res.state
	case <-time.After(timeout):
		t.Fatal("SSE stream did not terminate in time")
		return nil, ""
	}
}

func TestStoreRequiresJournalDir(t *testing.T) {
	pr, eng := fixture(t)
	store, err := jobstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, err = server.New(server.Config{
		Proteins: pr.Proteins,
		Graph:    pr.Graph,
		Engines:  []*pipe.Engine{eng},
		Store:    store,
	})
	if err == nil || !strings.Contains(err.Error(), "JournalDir") {
		t.Fatalf("New without JournalDir: err = %v, want JournalDir requirement", err)
	}
}

func TestLoadTenantsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	blob := `[{"name":"a","key":"ka","weight":2},{"name":"b","key":"kb","rate_per_sec":5}]`
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	tenants, err := server.LoadTenantsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tenants) != 2 || tenants[0].Weight != 2 || tenants[1].RatePerSec != 5 {
		t.Fatalf("parsed %+v", tenants)
	}
	if _, err := server.LoadTenantsFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file should error")
	}
	// Duplicate keys must be rejected at server construction.
	pr, eng := fixture(t)
	_, err = server.New(server.Config{
		Proteins: pr.Proteins,
		Graph:    pr.Graph,
		Engines:  []*pipe.Engine{eng},
		Tenants: []server.Tenant{
			{Name: "x", Key: "same"},
			{Name: "y", Key: "same"},
		},
	})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate key: err = %v", err)
	}
}

// TestStatusPollWhileJobStarts: GET /v1/designs/{id} reads a claimed
// job's spec while the claim loop is still resolving and storing it.
// The poller never sleeps, so under -race the unsynchronized store this
// once was is reported within a few jobs.
func TestStatusPollWhileJobStarts(t *testing.T) {
	pr, _ := fixture(t)
	_, ts := newStoreServer(t, t.TempDir(), t.TempDir(), "replica-a", func(c *server.Config) {
		c.PollInterval = time.Millisecond
	})
	for i := 0; i < 8; i++ {
		job := submitJob(t, ts, tinyDesign(pr.Proteins[0].Name(), 1))
		for {
			var got server.JobJSON
			if resp := getJSON(t, ts.URL+"/v1/designs/"+job.ID, &got); resp.StatusCode != http.StatusOK {
				t.Fatalf("poll %s: status %d", job.ID, resp.StatusCode)
			}
			if got.State.Terminal() {
				if got.State != server.JobDone {
					t.Fatalf("job %s finished %s (%s)", job.ID, got.State, got.Error)
				}
				break
			}
		}
	}
}
