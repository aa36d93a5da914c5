package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/jobstore"
	"repro/internal/server"
)

// Tests of the one job path: the claim loop over a jobstore.Store, the
// same on a directory store and on the memory store a replica gets when
// Config.Store is nil.

// bothStores runs a test against a replica on each kind of store, its one
// claim loop an hour from its next unprompted look at the store.
func bothStores(t *testing.T, mutate func(*server.Config), run func(t *testing.T, ts *httptest.Server)) {
	config := func(c *server.Config) {
		c.QueueWorkers = 1
		c.PollInterval = time.Hour
		mutate(c)
	}
	t.Run("directory", func(t *testing.T) {
		_, ts := newStoreServer(t, t.TempDir(), t.TempDir(), "replica-a", config)
		run(t, ts)
	})
	t.Run("memory", func(t *testing.T) {
		srv, ts := newTestServer(t, config)
		t.Cleanup(func() { // the blocker outlives the test otherwise
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			_ = srv.Drain(ctx)
		})
		run(t, ts)
	})
}

// doAs makes one API request under an API key ("" = none), decodes a
// JSON answer into out when out is non-nil and the status is 2xx, and
// returns the status.
func doAs(t testing.TB, ts *httptest.Server, key, method, path string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, _ := http.NewRequest(method, ts.URL+path, &buf)
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

// submitAs posts a design request and returns the status and the job, if
// one was accepted.
func submitAs(t testing.TB, ts *httptest.Server, key string, design server.DesignRequest) (int, server.JobJSON) {
	t.Helper()
	var job server.JobJSON
	return doAs(t, ts, key, "POST", "/v1/designs", design, &job), job
}

// holdClaimLoop parks the replica's one claim loop inside a job that runs
// until cancelled, and returns that job.
func holdClaimLoop(t testing.TB, ts *httptest.Server, key string) server.JobJSON {
	t.Helper()
	pr, _ := fixture(t)
	status, blocker := submitAs(t, ts, key, longDesign(pr.Proteins[0].Name()))
	if status != http.StatusAccepted {
		t.Fatalf("blocker: status %d", status)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		for _, j := range listAs(t, ts, key) {
			if j.ID == blocker.ID && j.State == server.JobRunning {
				return blocker
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("claim loop never picked up the blocker job")
		}
	}
}

// listAs returns the jobs the key's tenant can see.
func listAs(t testing.TB, ts *httptest.Server, key string) []server.JobJSON {
	t.Helper()
	var jobs []server.JobJSON
	if status := doAs(t, ts, key, "GET", "/v1/designs", nil, &jobs); status != http.StatusOK {
		t.Fatalf("listing jobs: status %d", status)
	}
	return jobs
}

// countJobs counts the listed jobs in a state.
func countJobs(jobs []server.JobJSON, state server.JobState) int {
	n := 0
	for _, j := range jobs {
		if j.State == state {
			n++
		}
	}
	return n
}

func cancelJob(t testing.TB, ts *httptest.Server, key, id string) {
	t.Helper()
	doAs(t, ts, key, http.MethodDelete, "/v1/designs/"+id, nil, nil)
}

// raceSubmits fires n submits at once and counts the answers by status.
func raceSubmits(t *testing.T, ts *httptest.Server, key string, n int) map[int]int {
	t.Helper()
	pr, _ := fixture(t)
	var (
		mu     sync.Mutex
		counts = map[int]int{}
		wg     sync.WaitGroup
		start  = make(chan struct{})
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			status, _ := submitAs(t, ts, key, tinyDesign(pr.Proteins[1].Name(), 2))
			mu.Lock()
			counts[status]++
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()
	return counts
}

// The backlog bound is judged inside the store transaction that creates
// the record: of 64 submits racing for 4 slots exactly 4 are accepted.
// Judged from a snapshot taken before the transaction, every submit that
// read the backlog before the first record landed would get in.
func TestConcurrentSubmitsRespectQueueCapacity(t *testing.T) {
	bothStores(t, func(c *server.Config) { c.QueueCapacity = 4 }, func(t *testing.T, ts *httptest.Server) {
		blocker := holdClaimLoop(t, ts, "")
		defer cancelJob(t, ts, "", blocker.ID)
		counts := raceSubmits(t, ts, "", 64)
		if counts[http.StatusAccepted] != 4 || counts[http.StatusTooManyRequests] != 60 {
			t.Fatalf("64 submits against a backlog bound of 4: by status %v, want 4 × 202 and 60 × 429", counts)
		}
		if queued := countJobs(listAs(t, ts, ""), server.JobQueued); queued != 4 {
			t.Fatalf("backlog after the race: %d queued, want 4", queued)
		}
	})
}

// The tenant's active-job cap is judged in the same transaction: the
// running blocker and 4 of the 64 make the 5 the tenant may have.
func TestConcurrentSubmitsRespectMaxActiveJobs(t *testing.T) {
	tenants := func(c *server.Config) {
		c.QueueCapacity = 128
		c.Tenants = []server.Tenant{{Name: "capped", Key: "capped-key", MaxActiveJobs: 5}}
	}
	bothStores(t, tenants, func(t *testing.T, ts *httptest.Server) {
		blocker := holdClaimLoop(t, ts, "capped-key")
		defer cancelJob(t, ts, "capped-key", blocker.ID)
		counts := raceSubmits(t, ts, "capped-key", 64)
		if counts[http.StatusAccepted] != 4 || counts[http.StatusTooManyRequests] != 60 {
			t.Fatalf("64 submits against an active-job cap of 5 (1 running): by status %v, want 4 × 202 and 60 × 429", counts)
		}
		jobs := listAs(t, ts, "capped-key")
		if active := countJobs(jobs, server.JobQueued) + countJobs(jobs, server.JobRunning); active != 5 {
			t.Fatalf("tenant's active jobs after the race: %d, want 5", active)
		}
	})
}

// An event stream opened while its job is still pending follows a job no
// replica runs; when this replica claims the job the stream goes live.
// Without a journal dir there is no file to follow in the meantime, so
// every generation has to come from the job's progress ring.
func TestSSEAttachedWhilePendingGoesLive(t *testing.T) {
	pr, _ := fixture(t)
	srv, ts := newTestServer(t, func(c *server.Config) {
		c.QueueWorkers = 1
		c.PollInterval = 10 * time.Millisecond // the stream's handover cadence
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
	})
	blocker := holdClaimLoop(t, ts, "")
	job := submitJob(t, ts, tinyDesign(pr.Proteins[1].Name(), 6))
	resp, err := http.Get(ts.URL + "/v1/designs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := waitJob(t, ts, job.ID, time.Second, func(server.JobJSON) bool { return true }); got.State != server.JobQueued {
		t.Fatalf("job is %s with the claim loop held, want queued", got.State)
	}
	cancelJob(t, ts, "", blocker.ID)

	gens, state := readSSE(t, resp, 30*time.Second)
	done := waitJob(t, ts, job.ID, 30*time.Second, terminal)
	if state != string(server.JobDone) || done.State != server.JobDone {
		t.Fatalf("stream ended with state %q, job %s (%s), want done", state, done.State, done.Error)
	}
	if len(gens) != done.Generations || done.Generations == 0 {
		t.Fatalf("stream carried generations %v of a %d-generation job", gens, done.Generations)
	}
	for i, g := range gens {
		if g != i {
			t.Fatalf("stream carried generations %v, want 0..%d in order", gens, done.Generations-1)
		}
	}
}

// TestFairShareNoStarvation's scenario on a replica given no store: a
// light tenant's one job behind a heavy tenant's backlog is claimed near
// the front.
func TestFairShareWithoutStoreDir(t *testing.T) {
	pr, _ := fixture(t)
	srv, ts := newTestServer(t, func(c *server.Config) {
		c.QueueWorkers = 1
		c.Tenants = []server.Tenant{
			{Name: "heavy", Key: "heavy-key"},
			{Name: "light", Key: "light-key"},
		}
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
	})
	// Build the backlog behind a held claim loop, so claims happen in a
	// controlled order once it is let go.
	blocker := holdClaimLoop(t, ts, "heavy-key")
	const heavyJobs = 6
	for i := 0; i < heavyJobs; i++ {
		if status, _ := submitAs(t, ts, "heavy-key", tinyDesign(pr.Proteins[0].Name(), 2)); status != http.StatusAccepted {
			t.Fatalf("heavy submit %d: status %d", i, status)
		}
	}
	status, light := submitAs(t, ts, "light-key", tinyDesign(pr.Proteins[0].Name(), 2))
	if status != http.StatusAccepted {
		t.Fatalf("light submit: status %d", status)
	}
	cancelJob(t, ts, "heavy-key", blocker.ID)

	var heavy []server.JobJSON
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		heavy = listAs(t, ts, "heavy-key")
		finished := countJobs(heavy, server.JobDone) + countJobs(heavy, server.JobCancelled)
		if finished == 1+heavyJobs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("heavy tenant's backlog did not finish: %d of %d", finished, 1+heavyJobs)
		}
	}
	lights := listAs(t, ts, "light-key")
	if len(lights) != 1 || lights[0].ID != light.ID || lights[0].State != server.JobDone {
		t.Fatalf("light tenant sees %+v, want its one job done", lights)
	}
	// One claim loop runs one job at a time, so start times are the claim
	// order.
	pos := 1
	for _, j := range heavy {
		if j.ID != blocker.ID && j.Started.Before(*lights[0].Started) {
			pos++
		}
	}
	if pos > heavyJobs/2 {
		t.Fatalf("light job starved: claimed %d of %d", pos, 1+heavyJobs)
	}
}

// /healthz reports the backlog, which is the live set's business: a
// liveness probe reads the live records (here the one running job) and
// none of the finished ones, however many the store has served.
func TestHealthzReadsOnlyLiveRecords(t *testing.T) {
	pr, _ := fixture(t)
	var store *jobstore.Store
	_, ts := newStoreServer(t, t.TempDir(), t.TempDir(), "replica-a", func(c *server.Config) {
		store = c.Store
		c.PollInterval = time.Hour
		c.JobLease = 3 * time.Hour // no renewal reads inside the test
	})
	for i := 0; i < 5; i++ {
		job := submitJob(t, ts, tinyDesign(pr.Proteins[0].Name(), 2))
		if done := waitJob(t, ts, job.ID, 30*time.Second, terminal); done.State != server.JobDone {
			t.Fatalf("job %d finished %s", i, done.State)
		}
	}
	blocker := holdClaimLoop(t, ts, "")
	defer cancelJob(t, ts, "", blocker.ID)

	scans, reads := store.Scans(), store.RecordReads()
	var h server.HealthJSON
	if resp := getJSON(t, ts.URL+"/healthz", &h); resp.StatusCode != http.StatusOK || h.Running != 1 || h.QueueDepth != 0 {
		t.Fatalf("healthz: %d %+v, want 1 running and an empty queue", resp.StatusCode, h)
	}
	if got := store.Scans() - scans; got != 1 {
		t.Errorf("healthz made %d store scans, want 1", got)
	}
	if got := store.RecordReads() - reads; got != 1 {
		t.Errorf("healthz read %d records with 1 live and 5 finished, want 1", got)
	}
}
