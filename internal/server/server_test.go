package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pipe"
	"repro/internal/server"
	"repro/internal/simindex"
	"repro/internal/yeastgen"
)

var (
	fixOnce   sync.Once
	fixProt   *yeastgen.Proteome
	fixEngine *pipe.Engine
)

// fixture builds one small proteome and engine shared by every test;
// servers are handed the engine through Config.Engines so each test does
// not pay the build again.
func fixture(t testing.TB) (*yeastgen.Proteome, *pipe.Engine) {
	t.Helper()
	fixOnce.Do(func() {
		pr, err := yeastgen.Generate(yeastgen.TestParams())
		if err != nil {
			panic(err)
		}
		eng, err := pipe.New(pr.Proteins, pr.Graph, pipe.Config{}, 0)
		if err != nil {
			panic(err)
		}
		fixProt, fixEngine = pr, eng
	})
	return fixProt, fixEngine
}

// newTestServer starts a seeded service; mutate adjusts the config
// (queue sizing etc.) before construction.
func newTestServer(t testing.TB, mutate func(*server.Config)) (*server.Server, *httptest.Server) {
	t.Helper()
	pr, eng := fixture(t)
	cfg := server.Config{
		Proteins: pr.Proteins,
		Graph:    pr.Graph,
		Engines:  []*pipe.Engine{eng},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t testing.TB, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJSON(t testing.TB, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
	}
	return resp
}

// longDesign is a design request that keeps a worker busy until
// cancelled: an effectively unbounded generation cap, with the fitness
// memo cache disabled so converged generations cannot speed toward the
// cap at cache-hit speed.
func longDesign(target string) server.DesignRequest {
	req := tinyDesign(target, 100000)
	req.StallGens = 100000 // don't let stall termination finish it early
	req.NoFitnessCache = true
	return req
}

// tinyDesign is a design request small enough to finish in well under a
// second against the test proteome.
func tinyDesign(target string, maxGens int) server.DesignRequest {
	return server.DesignRequest{
		Target:         target,
		MaxNonTargets:  1,
		Population:     12,
		SeqLen:         40,
		MinGenerations: 1,
		MaxGenerations: maxGens,
		Workers:        1,
		Threads:        1,
	}
}

func submitJob(t testing.TB, ts *httptest.Server, req server.DesignRequest) server.JobJSON {
	t.Helper()
	resp, data := postJSON(t, ts.URL+"/v1/designs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	var job server.JobJSON
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.State != server.JobQueued {
		t.Fatalf("submit returned %+v", job)
	}
	return job
}

// waitJob polls the job until pred holds or the deadline passes.
func waitJob(t testing.TB, ts *httptest.Server, id string, timeout time.Duration, pred func(server.JobJSON) bool) server.JobJSON {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var job server.JobJSON
		resp := getJSON(t, ts.URL+"/v1/designs/"+id, &job)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s: status %d", id, resp.StatusCode)
		}
		if pred(job) {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not reach desired state in %v; last: state=%s gens=%d err=%q",
				id, timeout, job.State, job.Generations, job.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func terminal(j server.JobJSON) bool { return j.State.Terminal() }

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var h server.HealthJSON
	resp := getJSON(t, ts.URL+"/healthz", &h)
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, h)
	}
	if h.Proteins == 0 || h.Interactions == 0 {
		t.Errorf("healthz missing proteome stats: %+v", h)
	}
}

func TestScoreRoundTrip(t *testing.T) {
	pr, _ := fixture(t)
	_, ts := newTestServer(t, nil)
	query := pr.Proteins[0].Name()
	against := []string{pr.Proteins[1].Name(), pr.Proteins[2].Name(), pr.Proteins[3].Name()}

	score := func() server.ScoreResponse {
		resp, data := postJSON(t, ts.URL+"/v1/score", server.ScoreRequest{
			QueryName: query,
			Against:   against,
			Threads:   2,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("score: status %d: %s", resp.StatusCode, data)
		}
		var out server.ScoreResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := score()
	if len(first.Scores) != len(against) {
		t.Fatalf("got %d scores, want %d", len(first.Scores), len(against))
	}
	for i, ps := range first.Scores {
		if ps.Name != against[i] {
			t.Errorf("score %d is for %q, want %q", i, ps.Name, against[i])
		}
		if ps.Score < 0 || ps.Score > 1 {
			t.Errorf("score %q = %f out of [0,1]", ps.Name, ps.Score)
		}
	}
	// Scoring is deterministic: a repeat request returns identical values.
	second := score()
	for i := range first.Scores {
		if first.Scores[i] != second.Scores[i] {
			t.Errorf("score %d not deterministic: %+v vs %+v", i, first.Scores[i], second.Scores[i])
		}
	}

	// Inline novel query.
	resp, data := postJSON(t, ts.URL+"/v1/score", server.ScoreRequest{
		Query:   &server.SequenceJSON{Name: "novel", Residues: strings.Repeat("ACDEFGHIKL", 8)},
		Against: against[:1],
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("novel query: status %d: %s", resp.StatusCode, data)
	}

	// Error paths.
	if resp, _ := postJSON(t, ts.URL+"/v1/score", server.ScoreRequest{QueryName: "NOPE", Against: against}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown query protein: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/score", server.ScoreRequest{QueryName: query}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing against: status %d, want 400", resp.StatusCode)
	}
}

func TestJobLifecycle(t *testing.T) {
	pr, _ := fixture(t)
	_, ts := newTestServer(t, nil)
	const gens = 3
	job := submitJob(t, ts, tinyDesign(pr.Proteins[0].Name(), gens))
	done := waitJob(t, ts, job.ID, 60*time.Second, terminal)
	if done.State != server.JobDone {
		t.Fatalf("job finished %s (err %q), want done", done.State, done.Error)
	}
	if done.Generations != gens || len(done.Curve) != gens {
		t.Errorf("generations %d, curve %d, want %d", done.Generations, len(done.Curve), gens)
	}
	if done.Best == nil {
		t.Fatal("done job has no best detail")
	}
	if len(done.Sequence) != 40 {
		t.Errorf("designed sequence length %d, want 40", len(done.Sequence))
	}
	wantName := ">anti-" + pr.Proteins[0].Name()
	if !strings.HasPrefix(done.FASTA, wantName) {
		t.Errorf("FASTA does not start with %q: %q", wantName, done.FASTA)
	}
	if done.Started == nil || done.Finished == nil {
		t.Error("done job missing timestamps")
	}
	for g, cp := range done.Curve {
		if cp.Generation != g {
			t.Errorf("curve point %d has generation %d", g, cp.Generation)
		}
	}

	// The finished job appears in the listing (without curve).
	var list []server.JobJSON
	getJSON(t, ts.URL+"/v1/designs", &list)
	found := false
	for _, j := range list {
		if j.ID == job.ID {
			found = true
			if len(j.Curve) != 0 {
				t.Error("listing includes the full curve")
			}
		}
	}
	if !found {
		t.Error("job missing from listing")
	}

	// Unknown job is a 404.
	if resp := getJSON(t, ts.URL+"/v1/designs/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

func TestCancelMidRun(t *testing.T) {
	pr, _ := fixture(t)
	_, ts := newTestServer(t, nil)
	req := tinyDesign(pr.Proteins[0].Name(), 100000)
	req.Population = 40
	job := submitJob(t, ts, req)
	// Wait until the job is demonstrably mid-run (some progress recorded).
	waitJob(t, ts, job.ID, 60*time.Second, func(j server.JobJSON) bool {
		return j.State == server.JobRunning && j.Generations >= 1
	})
	cancelReq, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/designs/"+job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(cancelReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	done := waitJob(t, ts, job.ID, 30*time.Second, terminal)
	if done.State != server.JobCancelled {
		t.Fatalf("job finished %s, want cancelled", done.State)
	}
	if done.Generations >= 100000 {
		t.Error("cancelled job ran to its generation cap")
	}
	// The partial result of the completed generations survives.
	if done.Generations >= 1 && done.Best == nil {
		t.Error("cancelled job lost its partial best result")
	}
}

func TestCancelQueuedJob(t *testing.T) {
	pr, _ := fixture(t)
	// One worker, deep queue: the second job waits behind the first.
	_, ts := newTestServer(t, func(c *server.Config) {
		c.QueueWorkers = 1
		c.QueueCapacity = 8
	})
	blocker := submitJob(t, ts, longDesign(pr.Proteins[0].Name()))
	waitJob(t, ts, blocker.ID, 60*time.Second, func(j server.JobJSON) bool {
		return j.State == server.JobRunning
	})
	queued := submitJob(t, ts, tinyDesign(pr.Proteins[1].Name(), 5))
	for _, id := range []string{queued.ID, blocker.ID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/designs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if j := waitJob(t, ts, queued.ID, 30*time.Second, terminal); j.State != server.JobCancelled {
		t.Errorf("queued job finished %s, want cancelled", j.State)
	}
	if j := waitJob(t, ts, blocker.ID, 30*time.Second, terminal); j.State != server.JobCancelled {
		t.Errorf("blocker finished %s, want cancelled", j.State)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	pr, _ := fixture(t)
	_, ts := newTestServer(t, func(c *server.Config) {
		c.QueueWorkers = 1
		c.QueueCapacity = 1
	})
	// Occupy the single worker...
	blocker := submitJob(t, ts, longDesign(pr.Proteins[0].Name()))
	waitJob(t, ts, blocker.ID, 60*time.Second, func(j server.JobJSON) bool {
		return j.State == server.JobRunning
	})
	// ...fill the single queue slot...
	queued := submitJob(t, ts, tinyDesign(pr.Proteins[1].Name(), 2))
	// ...and the next submission must bounce with 429.
	resp, data := postJSON(t, ts.URL+"/v1/designs", tinyDesign(pr.Proteins[2].Name(), 2))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: status %d (%s), want 429", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}

	// Unblock: cancel the runner; the queued job then completes.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/designs/"+blocker.ID, nil)
	cresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if j := waitJob(t, ts, queued.ID, 60*time.Second, terminal); j.State != server.JobDone {
		t.Errorf("queued job finished %s (err %q), want done", j.State, j.Error)
	}
}

func TestMetricsAndEngineCache(t *testing.T) {
	pr, _ := fixture(t)
	// Deliberately unseeded: New builds the one engine, and scoring and
	// /metrics work on it without a further build.
	_, ts := newTestServer(t, func(c *server.Config) {
		c.Engines = nil
	})
	for i := 0; i < 2; i++ {
		resp, data := postJSON(t, ts.URL+"/v1/score", server.ScoreRequest{
			QueryName: pr.Proteins[0].Name(),
			Against:   []string{pr.Proteins[1].Name()},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("score: %d %s", resp.StatusCode, data)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(body)
	for _, want := range []string{
		"insipsd_queue_depth 0",
		`insipsd_http_requests_total{route="score"} 2`,
		"insipsd_jobs_accepted_total 0",
		"insipsd_window_table_hits_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	if strings.Contains(metrics, "insipsd_engine_cache") {
		t.Errorf("metrics still expose an engine cache:\n%s", metrics)
	}
	if !strings.Contains(metrics, "insipsd_http_request_seconds_sum") {
		t.Error("metrics missing latency counters")
	}
}

func TestDesignRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []server.DesignRequest{
		{},               // no target
		{Target: "NOPE"}, // unknown target
		{Target: fixProt.Proteins[0].Name(), SeqLen: 10},                   // too short for crossover
		{Target: fixProt.Proteins[0].Name(), NonTargets: []string{"NOPE"}}, // unknown non-target
	}
	for i, req := range cases {
		resp, _ := postJSON(t, ts.URL+"/v1/designs", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, resp.StatusCode)
		}
	}
	// Malformed JSON, a field the request does not have, and shards and
	// surrogate, which it no longer has: how a client still sending a
	// removed field is answered — 400, naming the field.
	for _, c := range []struct{ body, want string }{
		{"{", "bad request body"},
		{fmt.Sprintf(`{"target":%q,"priority":9}`, fixProt.Proteins[0].Name()), `unknown field "priority"`},
		{fmt.Sprintf(`{"target":%q,"shards":2}`, fixProt.Proteins[0].Name()), `unknown field "shards"`},
		{fmt.Sprintf(`{"target":%q,"surrogate":true}`, fixProt.Proteins[0].Name()), `unknown field "surrogate"`},
	} {
		resp, err := http.Post(ts.URL+"/v1/designs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var answer struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&answer)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || !strings.Contains(answer.Error, c.want) {
			t.Errorf("body %s: %d %q (%v), want 400 naming %q", c.body, resp.StatusCode, answer.Error, err, c.want)
		}
	}
}

// TestOversizedRequestBody: both POST endpoints stop reading a body
// past the 1 MiB cap and answer 413 with the usual JSON error — also
// when the excess is padding inside an otherwise valid request.
func TestOversizedRequestBody(t *testing.T) {
	_, ts := newTestServer(t, nil)
	huge := `{"target":"` + strings.Repeat("A", 1<<20) + `"}`
	for _, path := range []string{"/v1/designs", "/v1/score"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || !strings.Contains(body.Error, "exceeds") {
			t.Errorf("%s: status %d, body %+v (decode: %v); want 413 with a JSON error", path, resp.StatusCode, body, err)
		}
	}
	var list []server.JobJSON
	getJSON(t, ts.URL+"/v1/designs", &list)
	if len(list) != 0 {
		t.Errorf("an oversized submission created %d jobs", len(list))
	}
}

// TestShardedJobMatchesSinglePool: a job record stored by a build that
// still had the shards knob (testdata/legacy/store's d-000009, "shards":
// 3) is claimed and runs on one pool of its workers, designing exactly
// the protein the same request without shards designs now.
func TestShardedJobMatchesSinglePool(t *testing.T) {
	pr, _ := fixture(t)
	storeDir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(storeDir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	rec, err := os.ReadFile(filepath.Join("testdata", "legacy", "store", "jobs", "d-000009.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rec), `"shards":3`) {
		t.Fatalf("fixture no longer carries shards: %s", rec)
	}
	if err := os.WriteFile(filepath.Join(storeDir, "jobs", "d-000009.json"), rec, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newStoreServer(t, storeDir, t.TempDir(), "replica-a", nil)

	got := waitJob(t, ts, "d-000009", 60*time.Second, terminal)
	if got.State != server.JobDone {
		t.Fatalf("stored sharded job finished %s (err %q)", got.State, got.Error)
	}
	plain := tinyDesign(pr.Proteins[0].Name(), 4)
	ref := waitJob(t, ts, submitJob(t, ts, plain).ID, 60*time.Second, terminal)
	if ref.State != server.JobDone {
		t.Fatalf("reference job finished %s (err %q)", ref.State, ref.Error)
	}
	if got.Sequence != ref.Sequence || *got.Best != *ref.Best || len(got.Curve) != len(ref.Curve) {
		t.Fatalf("stored sharded job diverged:\ngot:  %s %+v\nref:  %s %+v",
			got.Sequence, got.Best, ref.Sequence, ref.Best)
	}
	for g := range ref.Curve {
		if got.Curve[g] != ref.Curve[g] {
			t.Fatalf("curve diverges at generation %d: %+v vs %+v", g, got.Curve[g], ref.Curve[g])
		}
	}
}

func TestDrainRejectsNewJobs(t *testing.T) {
	pr, _ := fixture(t)
	srv, ts := newTestServer(t, nil)
	job := submitJob(t, ts, tinyDesign(pr.Proteins[0].Name(), 2))
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if j := waitJob(t, ts, job.ID, time.Second, terminal); j.State != server.JobDone {
		t.Errorf("job submitted before drain finished %s, want done", j.State)
	}
	resp, _ := postJSON(t, ts.URL+"/v1/designs", tinyDesign(pr.Proteins[1].Name(), 2))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("submit while draining: status %d, want 429", resp.StatusCode)
	}
	var h server.HealthJSON
	if hresp := getJSON(t, ts.URL+"/healthz", &h); hresp.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Errorf("healthz while draining: %d %q", hresp.StatusCode, h.Status)
	}
}

// TestNewRejectsForeignEngines: the service runs one engine, built over
// its proteome with pipe's default configuration. New refuses an engine
// built over another proteome, another similarity-search configuration
// or other scoring parameters, and more than one engine, instead of serving the wrong
// one or none of them.
func TestNewRejectsForeignEngines(t *testing.T) {
	pr, eng := fixture(t)
	params := yeastgen.TestParams()
	params.Seed++
	other, err := yeastgen.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	otherProteome, err := pipe.New(other.Proteins, other.Graph, pipe.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	otherConfig, err := pipe.New(pr.Proteins, pr.Graph, pipe.Config{Index: simindex.Config{Threshold: 30}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	otherScoring, err := pipe.New(pr.Proteins, pr.Graph, pipe.Config{MinOcc: 1, TopFrac: 0.5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, engines := range map[string][]*pipe.Engine{
		"another proteome":      {otherProteome},
		"another configuration": {otherConfig},
		"other scoring":         {otherScoring},
		"two engines":           {eng, eng},
	} {
		srv, err := server.New(server.Config{Proteins: pr.Proteins, Graph: pr.Graph, Engines: engines})
		if err == nil {
			srv.Drain(context.Background())
			t.Errorf("%s: New accepted the engines", name)
		}
	}
}

// TestSurrogateRecordFailsAtClaim: a job record stored by a build that
// still had the surrogate pre-scorer (testdata/legacy/store's d-000010,
// "surrogate": true) is claimed and fails, naming the removed option,
// instead of running as a different job.
func TestSurrogateRecordFailsAtClaim(t *testing.T) {
	storeDir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(storeDir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	rec, err := os.ReadFile(filepath.Join("testdata", "legacy", "store", "jobs", "d-000010.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rec), `"surrogate":true`) {
		t.Fatalf("fixture no longer carries surrogate: %s", rec)
	}
	if err := os.WriteFile(filepath.Join(storeDir, "jobs", "d-000010.json"), rec, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newStoreServer(t, storeDir, t.TempDir(), "replica-a", nil)

	got := waitJob(t, ts, "d-000010", 60*time.Second, terminal)
	if got.State != server.JobFailed || !strings.Contains(got.Error, "surrogate") {
		t.Fatalf("stored surrogate job finished %s (err %q), want failed naming the surrogate", got.State, got.Error)
	}
}
