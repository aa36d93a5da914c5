package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/pipe"
	"repro/internal/yeastgen"
)

// FuzzDesignRequestRoundTrip sends arbitrary bytes down the road every
// design job takes: the submit handler's decoder, Server.resolve, then
// json.Marshal(req) into the store and — in whichever replica claims the
// job — json.Unmarshal and Server.resolve again. Nothing on it may
// panic, and a request the submit accepted must come out of the store as
// the run the submit validated: a runner that resolved anything else
// would run a job nobody asked for, or fail one that was answered 202.
//
// The same request must mean the same run to insips: rendered as its
// arguments (every field both surfaces have, with the service defaults
// filled in) and parsed back through its flag binding, it must resolve
// to the same protein IDs and core.Options.
func FuzzDesignRequestRoundTrip(f *testing.F) {
	pr, err := yeastgen.Generate(yeastgen.TestParams())
	if err != nil {
		f.Fatal(err)
	}
	srv, err := New(Config{Proteins: pr.Proteins, Graph: pr.Graph, QueueWorkers: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = srv.Drain(context.Background()) })
	for _, body := range designRequestSeeds(pr.Proteins[0].Name(), pr.Proteins[1].Name(), pr.Proteins[2].Name()) {
		f.Add(body)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		var req DesignRequest
		if !decodeJSON(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/designs", bytes.NewReader(body)), &req) {
			return
		}
		run, err := srv.resolve(req)
		if err != nil {
			return
		}
		stored, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request %+v does not marshal for the store: %v", req, err)
		}
		claimed, err := srv.jobs.claim.resolve(stored)
		if err != nil {
			t.Fatalf("request accepted at submit is refused at claim: %v\n body   %s\n stored %s", err, body, stored)
		}
		if !reflect.DeepEqual(run, claimed) {
			t.Fatalf("run changed on its way through the store\n body   %s\n stored %s\n submit %+v\n claim  %+v", body, stored, run, claimed)
		}

		args := insipsArgs(req.WithDefaults(core.ServiceDefaults))
		cli := core.CLIDefaults
		fs := flag.NewFlagSet("insips", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		cli.BindFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("insips refuses the arguments of an accepted request: %v\n body %s\n args %q", err, body, args)
		}
		cliRun, err := cli.Resolve(srv.cfg.Graph)
		if err != nil {
			t.Fatalf("insips refuses a request insipsd accepted: %v\n body %s\n args %q", err, body, args)
		}
		// NoFitnessCache is the one field insips has no flag for.
		cliRun.Options.DisableFitnessCache = run.Options.DisableFitnessCache
		if !reflect.DeepEqual(cliRun, run) {
			t.Fatalf("insips resolves another run\n body %s\n args %q\n insipsd %+v\n insips  %+v", body, args, run, cliRun)
		}
	})
}

// insipsArgs renders a spec as insips arguments, one -name=value per
// flag its binding registers.
func insipsArgs(spec core.Spec) []string {
	fs := flag.NewFlagSet("render", flag.ContinueOnError)
	spec.BindFlags(fs) // each flag defaults to, so renders, the field's value
	var args []string
	fs.VisitAll(func(fl *flag.Flag) { args = append(args, "-"+fl.Name+"="+fl.Value.String()) })
	return args
}

// designRequestSeeds are the requests of server_test.go and
// strategy_test.go, valid and not — three of them, written before the
// shards field was removed, send it, two the since-removed surrogate
// fields and one the since-removed landscape mode with its knobs — then
// bodies a Go client would not send: an empty list where omitempty
// writes none, floats no float64 holds, a field the API does not have.
func designRequestSeeds(a, b, c string) [][]byte {
	no := false
	tiny := DesignRequest{Target: a, MaxNonTargets: 1, Population: 12, SeqLen: 40,
		MinGenerations: 1, MaxGenerations: 4, Workers: 1, Threads: 1}
	with := func(mutate func(*DesignRequest)) DesignRequest {
		req := tiny
		mutate(&req)
		return req
	}
	var seeds [][]byte
	for _, req := range []any{
		tiny,
		with(func(r *DesignRequest) { r.MaxGenerations, r.StallGens, r.NoFitnessCache = 100000, 100000, true }),
		with(func(r *DesignRequest) { r.Strategy, r.BeamWidth, r.BeamExpand = "beam", 3, 3 }),
		with(func(r *DesignRequest) { r.Strategy, r.AnnealT0 = "anneal", 0.05 }),
		`{"target":%q,"max_non_targets":1,"population":12,"seq_len":40,"min_generations":1,"max_generations":4,"workers":1,"threads":1,"strategy":"landscape","landscape_eps":0.1,"landscape_patience":5}`,
		with(func(r *DesignRequest) { r.Strategy = "tabu" }),
		with(func(r *DesignRequest) { r.BeamWidth = 4 }),
		with(func(r *DesignRequest) { r.Strategy, r.AnnealCooling = "anneal", 1.5 }),
		with(func(r *DesignRequest) { r.WarmStart = &no }),
		with(func(r *DesignRequest) { r.Workers, r.Threads = 0, -1 }),
		`{"target":%q,"max_non_targets":1,"population":12,"seq_len":40,"min_generations":1,"max_generations":4,"workers":1,"threads":1,"shards":1,"no_fitness_cache":true}`,
		`{"target":%q,"max_non_targets":1,"population":12,"seq_len":40,"min_generations":1,"max_generations":4,"workers":1,"threads":1,"shards":3}`,
		`{"target":%q,"max_non_targets":1,"population":12,"seq_len":40,"min_generations":1,"max_generations":4,"workers":1,"threads":1,"surrogate":true,"surrogate_topk":0.25}`,
		with(func(r *DesignRequest) { r.Population, r.SeqLen, r.MaxNonTargets, r.Seed = 48, 80, 4, 7 }),
		DesignRequest{Target: a, NonTargets: []string{b, " " + c + " "}},
		DesignRequest{Target: a, NonTargets: []string{"NOPE"}},
		`{"target":%q,"shards":99}`,
		`{"target":%q,"surrogate_topk":0.5}`,
		DesignRequest{Target: "NOPE"},
		DesignRequest{},
	} {
		if raw, ok := req.(string); ok {
			seeds = append(seeds, []byte(fmt.Sprintf(raw, a)))
			continue
		}
		data, err := json.Marshal(req)
		if err != nil {
			panic(err)
		}
		seeds = append(seeds, data)
	}
	for _, raw := range []string{
		`{"target":%q,"non_targets":[]}`,
		`{"target":%q,"non_targets":null,"warm_start":null}`,
		`{"target":%q,"p_mutate":1e999}`,
		`{"target":%q,"p_crossover":NaN}`,
		`{"target":%q,"anneal_t0":-0.0,"strategy":"anneal"}`,
		`{"target":%q,"seed":-9223372036854775808,"population":1e3}`,
		`{"target":%q,"priority":9}`,
		`{"target":%q} {"target":"second document"}`,
	} {
		seeds = append(seeds, []byte(fmt.Sprintf(raw, a)))
	}
	return seeds
}

// FuzzScoreRequest sends arbitrary bytes through POST /v1/score's handler
// (decodeJSON, then handleScore) on the test proteome. Nothing may panic;
// every answer but 200 is a JSON {"error": …} body; and a 200 carries
// one score, in [0, 1], per protein the request asked about, in its
// order. The corpus under testdata/fuzz/FuzzScoreRequest covers both
// query forms at once and neither, a lowercase query with an X, an
// unknown name, against_all beside against, and negative threads.
func FuzzScoreRequest(f *testing.F) {
	pr, err := yeastgen.Generate(yeastgen.TestParams())
	if err != nil {
		f.Fatal(err)
	}
	engine, err := pipe.New(pr.Proteins, pr.Graph, pipe.Config{}, 0)
	if err != nil {
		f.Fatal(err)
	}
	srv, err := New(Config{Proteins: pr.Proteins, Graph: pr.Graph, Engines: []*pipe.Engine{engine}, QueueWorkers: 1, MaxScoreThreads: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = srv.Drain(context.Background()) })
	f.Add([]byte(fmt.Sprintf(`{"query_name":%q,"against":[%q,%q]}`, pr.Proteins[0].Name(), pr.Proteins[1].Name(), pr.Proteins[2].Name())))

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		srv.handleScore(rec, httptest.NewRequest("POST", "/v1/score", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			var answer errorJSON
			dec := json.NewDecoder(rec.Body)
			dec.DisallowUnknownFields()
			if err := dec.Decode(&answer); err != nil || answer.Error == "" {
				t.Fatalf("status %d without a JSON error (%v): %q\n body %s", rec.Code, err, rec.Body.String(), body)
			}
			return
		}
		var req ScoreRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for a body the handler cannot have decoded: %v\n body %s", err, body)
		}
		want := req.Against
		if req.AgainstAll {
			want = nil
			for _, p := range pr.Proteins {
				want = append(want, p.Name())
			}
		}
		var resp ScoreResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 body is not a ScoreResponse: %v\n %s", err, rec.Body.String())
		}
		if len(resp.Scores) != len(want) {
			t.Fatalf("%d scores for %d proteins\n body %s", len(resp.Scores), len(want), body)
		}
		for i, sc := range resp.Scores {
			if sc.Name != want[i] || !(sc.Score >= 0 && sc.Score <= 1) {
				t.Fatalf("score %d is %+v, want %q in [0, 1]\n body %s", i, sc, want[i], body)
			}
		}
	})
}
