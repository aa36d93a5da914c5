package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/evalbackend"
	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/seq"
	"repro/internal/yeastgen"
)

// TestMetricsReadEngineCounters: two queue workers run S40 jobs (the
// benchmark's service job: P200 proteome, population 40, length 60, ten
// generations) at the same time on one engine, and /metrics reports the
// window-table and delta counters of the server's engine itself. A journal
// record carries engine-wide deltas, so each overlapping job's records
// also count the other job's lookups; a sum of the records counts the
// overlap twice. The test submits pairs until one pair is seen to
// overlap (journaled lookups above the engine's), so it checks the case
// that used to be wrong.
func TestMetricsReadEngineCounters(t *testing.T) {
	params := yeastgen.DefaultParams()
	params.NumProteins = 200
	params.Seed = 1
	pr, err := yeastgen.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := pipe.New(pr.Proteins, pr.Graph, pipe.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	target := pr.WetlabTargetIDs()[0]
	var nonTargets []string
	for _, id := range pr.ComponentMembers(pr.Component(target)) {
		if id != target && len(nonTargets) < 5 {
			nonTargets = append(nonTargets, pr.Proteins[id].Name())
		}
	}
	srv, err := New(Config{Proteins: pr.Proteins, Graph: pr.Graph, Engines: []*pipe.Engine{eng}, QueueWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())

	var journaled int64 // window lookups summed over every job's records
	for pair := 0; pair < 5; pair++ {
		var ids []string
		for k := 0; k < 2; k++ {
			req := DesignRequest{
				Target: pr.Proteins[target].Name(), NonTargets: nonTargets,
				Population: 40, SeqLen: 60, MinGenerations: 10, MaxGenerations: 10,
				Workers: 1, Threads: 1, Seed: int64(1_000_000 + 2*pair + k),
			}
			var job JobJSON
			if code := call(t, ts, "POST", "/v1/designs", req, &job); code != http.StatusAccepted {
				t.Fatalf("submit: status %d", code)
			}
			ids = append(ids, job.ID)
		}
		for _, id := range ids {
			var prog ProgressJSON
			for deadline := time.Now().Add(time.Minute); ; time.Sleep(5 * time.Millisecond) {
				if call(t, ts, "GET", "/v1/designs/"+id+"/progress", nil, &prog); prog.State.Terminal() {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("job %s still %s", id, prog.State)
				}
			}
			if prog.State != JobDone || prog.Generations != 10 {
				t.Fatalf("job %s ended %s after %d generations", id, prog.State, prog.Generations)
			}
			for _, rec := range prog.Records {
				journaled += rec.WinCacheHits + rec.WinCacheMisses
			}
		}

		wc := srv.engine.WindowCacheStats()
		hits, misses := wc.Hits, wc.Misses
		deltas, _ := srv.engine.DeltaStats()
		page := scrape(t, ts)
		for name, want := range map[string]int64{
			"insipsd_window_table_hits_total":   hits,
			"insipsd_window_table_misses_total": misses,
			"insipsd_delta_queries_total":       deltas,
		} {
			if got := metricValue(t, page, name); got != want {
				t.Errorf("pair %d: %s = %d, the engine's own total is %d", pair, name, got, want)
			}
		}
		t.Logf("pair %d: engine %d window lookups, %d delta queries; journals %d lookups (%.2fx)",
			pair, hits+misses, deltas, journaled, float64(journaled)/float64(hits+misses))
		if t.Failed() || journaled > hits+misses {
			return
		}
	}
	t.Fatal("no pair of jobs overlapped; the test checked nothing a journal sum gets wrong")
}

// call sends body (if any) as JSON and decodes the response into out.
func call(t *testing.T, ts *httptest.Server, method, path string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	return resp.StatusCode
}

func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(page)
}

// metricValue reads an unlabelled integer sample off a /metrics page.
func metricValue(t *testing.T, page, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(page, "\n") {
		var v int64
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			if _, err := fmt.Sscan(rest, &v); err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("/metrics has no %s", name)
	return 0
}

// overcount is a pool that reports one scored candidate more than it
// scored from its second call on: the double count the journal's
// conservation identity exists to catch.
type overcount struct {
	*evalbackend.PoolBackend
	calls int
}

func (b *overcount) EvaluateAll(ctx context.Context, seqs []seq.Sequence) ([]cluster.Result, error) {
	b.calls++
	return b.PoolBackend.EvaluateAll(ctx, seqs)
}

func (b *overcount) Stats() evalbackend.Stats {
	st := b.PoolBackend.Stats()
	if b.calls >= 2 {
		st[evalbackend.Tasks]++
	}
	return st
}

// TestInvariantViolationsCounted: a job whose evaluation backend
// miscounts one generation (overcount) still finishes, its journal
// holds the record, and /metrics counts the violation once; a
// consistent job counts none.
func TestInvariantViolationsCounted(t *testing.T) {
	pr, err := yeastgen.Generate(yeastgen.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := pipe.New(pr.Proteins, pr.Graph, pipe.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	journals := t.TempDir()
	srv, err := New(Config{Proteins: pr.Proteins, Graph: pr.Graph, Engines: []*pipe.Engine{eng}, QueueWorkers: 1, JournalDir: journals})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background())
	// Every claim loop locks jobs.mu before it claims, so a job
	// submitted after this swap resolves through the wrapper.
	srv.jobs.mu.Lock()
	resolve := srv.jobs.claim.resolve
	srv.jobs.claim.resolve = func(raw json.RawMessage) (core.Run, error) {
		run, err := resolve(raw)
		if err == nil && run.Options.GA.Seed == 2 {
			pool, err := evalbackend.NewPool(eng, run.TargetID, run.NonTargetIDs, run.Options.Cluster)
			if err != nil {
				return run, err
			}
			run.Options.Backend = &overcount{PoolBackend: pool}
		}
		return run, err
	}
	srv.jobs.mu.Unlock()

	for _, seed := range []int64{1, 2} {
		req := DesignRequest{Target: pr.Proteins[0].Name(), MaxNonTargets: 1, Population: 12, SeqLen: 40,
			MinGenerations: 3, MaxGenerations: 3, Workers: 1, Threads: 1, Seed: seed}
		var job JobJSON
		if code := call(t, ts, "POST", "/v1/designs", req, &job); code != http.StatusAccepted {
			t.Fatalf("submit: status %d", code)
		}
		for deadline := time.Now().Add(time.Minute); !job.State.Terminal(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("job %s still %s", job.ID, job.State)
			}
			call(t, ts, "GET", "/v1/designs/"+job.ID, nil, &job)
		}
		if job.State != JobDone {
			t.Fatalf("seed %d: job ended %s (%s)", seed, job.State, job.Error)
		}
		want := seed - 1
		if got := metricValue(t, scrape(t, ts), "insipsd_invariant_violations_total"); got != want {
			t.Fatalf("after the job with seed %d: insipsd_invariant_violations_total = %d, want %d", seed, got, want)
		}
		recs, err := obs.ReadJournal(obs.JournalPath(filepath.Join(journals, job.ID)))
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 3 || (recs[1].AccountedCandidates() != recs[1].Population) != (seed == 2) {
			t.Fatalf("seed %d: journal %+v", seed, recs)
		}
	}
}
