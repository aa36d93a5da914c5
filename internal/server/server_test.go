package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netcluster"
	"repro/internal/pipe"
	"repro/internal/seq"
	"repro/internal/server"
	"repro/internal/yeastgen"
)

var (
	fixOnce   sync.Once
	fixProt   *yeastgen.Proteome
	fixEngine *pipe.Engine
)

// fixture builds one small proteome and engine shared by every test;
// servers seed the engine into their caches so each test does not pay
// the build again.
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
	// Deliberately unseeded: the first request is a cache miss that
	// builds the engine; the second load with the same fingerprint must
	// be a hit (no rebuild).
	srv, ts := newTestServer(t, func(c *server.Config) {
		c.Engines = nil
	})
	if _, _, err := srv.Preload(); err != nil { // miss #1 (the only build)
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // hits
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
		"insipsd_engine_cache_misses_total 1",
		"insipsd_engine_cache_hits_total 2",
		"insipsd_engine_cache_size 1",
		"insipsd_queue_depth 0",
		`insipsd_http_requests_total{route="score"} 2`,
		"insipsd_jobs_accepted_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
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
		{Target: fixProt.Proteins[0].Name(), SeqLen: 10},                           // too short for crossover
		{Target: fixProt.Proteins[0].Name(), NonTargets: []string{"NOPE"}},         // unknown non-target
		{Target: fixProt.Proteins[0].Name(), Shards: -1},                           // negative shard count
		{Target: fixProt.Proteins[0].Name(), Shards: 99},                           // shard count over the cap
		{Target: fixProt.Proteins[0].Name(), SurrogateTopK: 0.5},                   // surrogate knob without surrogate
		{Target: fixProt.Proteins[0].Name(), Surrogate: true, SurrogateTopK: 1.5},  // top-k over 1
		{Target: fixProt.Proteins[0].Name(), Surrogate: true, SurrogateExplore: 2}, // explore over 1
	}
	for i, req := range cases {
		resp, _ := postJSON(t, ts.URL+"/v1/designs", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, resp.StatusCode)
		}
	}
	// Malformed JSON, and a field the request does not have: how a
	// client still sending a removed field is answered.
	for _, body := range []string{"{", fmt.Sprintf(`{"target":%q,"priority":9}`, fixProt.Proteins[0].Name())} {
		resp, err := http.Post(ts.URL+"/v1/designs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, resp.StatusCode)
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

// TestShardedJobMatchesSinglePool: a job asking for sharded evaluation
// must design exactly the same protein as the default single-pool job —
// shards are a throughput knob, never a scoring one.
func TestShardedJobMatchesSinglePool(t *testing.T) {
	pr, _ := fixture(t)
	_, ts := newTestServer(t, nil)
	const gens = 3

	plain := tinyDesign(pr.Proteins[0].Name(), gens)
	ref := waitJob(t, ts, submitJob(t, ts, plain).ID, 60*time.Second, terminal)
	if ref.State != server.JobDone {
		t.Fatalf("reference job finished %s (err %q)", ref.State, ref.Error)
	}

	sharded := plain
	sharded.Shards = 3
	got := waitJob(t, ts, submitJob(t, ts, sharded).ID, 60*time.Second, terminal)
	if got.State != server.JobDone {
		t.Fatalf("sharded job finished %s (err %q)", got.State, got.Error)
	}
	if got.Sequence != ref.Sequence || *got.Best != *ref.Best {
		t.Fatalf("sharded job diverged:\ngot:  %s %+v\nref:  %s %+v",
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

// TestExtraMetricsExposesNetclusterStats wires a live distributed-
// evaluation master into the service's /metrics page via
// Config.ExtraMetrics and checks its counters render after one round.
func TestExtraMetricsExposesNetclusterStats(t *testing.T) {
	_, eng := fixture(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	master := netcluster.NewMaster(netcluster.NewSetup(eng, 0, []int{1}, 1), ln)
	t.Cleanup(func() { master.Close() })
	_, ts := newTestServer(t, func(c *server.Config) {
		c.ExtraMetrics = []func(io.Writer){
			func(w io.Writer) { master.Stats().WritePrometheus(w, "insipsd_netcluster") },
		}
	})
	go netcluster.RunWorker(master.Addr())

	rng := rand.New(rand.NewSource(1))
	seqs := []seq.Sequence{
		seq.Random(rng, "a", 80, seq.YeastComposition()),
		seq.Random(rng, "b", 80, seq.YeastComposition()),
	}
	if _, err := master.EvaluateAll(seqs); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(body)
	for _, want := range []string{
		"insipsd_netcluster_workers_connected",
		"insipsd_netcluster_tasks_dispatched_total",
		"insipsd_netcluster_tasks_completed_total 2",
		"insipsd_netcluster_tasks_reissued_total",
		"insipsd_netcluster_leases_expired_total",
		"insipsd_netcluster_rounds_completed_total 1",
		// The service's own metrics must still lead the page.
		"insipsd_uptime_seconds",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestSurrogateJobRunsAndExportsMetrics: a job with the surrogate
// pre-scorer enabled must finish, its progress stream must obey the
// four-term accounting invariant with a non-zero estimated count once
// the model has warmed up, and the service /metrics page must expose
// the aggregated surrogate counters.
func TestSurrogateJobRunsAndExportsMetrics(t *testing.T) {
	pr, _ := fixture(t)
	_, ts := newTestServer(t, nil)
	req := tinyDesign(pr.Proteins[0].Name(), 20)
	req.Population = 16
	req.MinGenerations = 20
	req.Surrogate = true
	req.SurrogateTopK = 0.25
	req.SurrogateExplore = 0.1
	job := waitJob(t, ts, submitJob(t, ts, req).ID, 120*time.Second, terminal)
	if job.State != server.JobDone {
		t.Fatalf("surrogate job finished %s (err %q)", job.State, job.Error)
	}

	var prog server.ProgressJSON
	getJSON(t, ts.URL+"/v1/designs/"+job.ID+"/progress?n=100", &prog)
	estimated := 0
	for _, rec := range prog.Records {
		if rec.AccountedCandidates() != rec.Population {
			t.Errorf("gen %d: accounted %d of population %d", rec.Generation, rec.AccountedCandidates(), rec.Population)
		}
		estimated += rec.SurrogateEstimated
	}
	if estimated == 0 {
		t.Error("surrogate never produced an estimate over 20 generations (warmup should have completed)")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, metric := range []string{"insipsd_surrogate_estimated_total", "insipsd_surrogate_trained_total"} {
		if !strings.Contains(text, metric) {
			t.Errorf("/metrics missing %s", metric)
		}
	}
	if strings.Contains(text, "insipsd_surrogate_estimated_total 0\n") {
		t.Error("insipsd_surrogate_estimated_total still zero after a surrogate job")
	}
}
