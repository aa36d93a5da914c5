package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/yeastgen"
)

// FuzzDesignRequestRoundTrip sends arbitrary bytes down the road every
// design job takes: the submit handler's decoder, specFromRequest, then
// json.Marshal(req) into the store and — in whichever replica claims the
// job — json.Unmarshal and specFromRequest again. Nothing on it may
// panic, and a request the submit accepted must come out of the store as
// the spec the submit validated: a runner that resolved anything else
// would run a job nobody asked for, or fail one that was answered 202.
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

	// The requests of server_test.go and strategy_test.go, valid and not.
	a, b, c := pr.Proteins[0].Name(), pr.Proteins[1].Name(), pr.Proteins[2].Name()
	no := false
	tiny := DesignRequest{Target: a, MaxNonTargets: 1, Population: 12, SeqLen: 40,
		MinGenerations: 1, MaxGenerations: 4, Workers: 1, Threads: 1}
	with := func(mutate func(*DesignRequest)) DesignRequest {
		req := tiny
		mutate(&req)
		return req
	}
	for _, req := range []DesignRequest{
		tiny,
		with(func(r *DesignRequest) { r.MaxGenerations, r.StallGens, r.NoFitnessCache = 100000, 100000, true }),
		with(func(r *DesignRequest) { r.Strategy, r.BeamWidth, r.BeamExpand = "beam", 3, 3 }),
		with(func(r *DesignRequest) { r.Strategy, r.AnnealT0 = "anneal", 0.05 }),
		with(func(r *DesignRequest) { r.Strategy, r.LandscapeEps, r.LandscapePatience = "landscape", 0.1, 5 }),
		with(func(r *DesignRequest) { r.Strategy = "tabu" }),
		with(func(r *DesignRequest) { r.BeamWidth = 4 }),
		with(func(r *DesignRequest) { r.Strategy, r.AnnealCooling = "anneal", 1.5 }),
		with(func(r *DesignRequest) { r.WarmStart = &no }),
		with(func(r *DesignRequest) { r.Workers, r.Threads = 0, -1 }),
		with(func(r *DesignRequest) { r.Shards, r.NoFitnessCache = 1, true }),
		with(func(r *DesignRequest) { r.Shards = 3 }),
		with(func(r *DesignRequest) { r.Surrogate, r.SurrogateTopK = true, 0.25 }),
		with(func(r *DesignRequest) { r.Population, r.SeqLen, r.MaxNonTargets, r.Seed = 48, 80, 4, 7 }),
		{Target: a, NonTargets: []string{b, " " + c + " "}},
		{Target: a, NonTargets: []string{"NOPE"}},
		{Target: a, Shards: 99},
		{Target: a, SurrogateTopK: 0.5},
		{Target: "NOPE"},
		{},
	} {
		data, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// What a Go client would not send: an empty list where omitempty
	// writes none, floats no float64 holds, a field the API does not have.
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
		f.Add([]byte(fmt.Sprintf(raw, a)))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		var req DesignRequest
		if !decodeJSON(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/designs", bytes.NewReader(body)), &req) {
			return
		}
		spec, err := srv.specFromRequest(req)
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
		if !reflect.DeepEqual(spec, claimed) {
			t.Fatalf("spec changed on its way through the store\n body   %s\n stored %s\n submit %+v\n claim  %+v", body, stored, spec, claimed)
		}
	})
}
