package main

import "encoding/json"

// This file is the benchmark's declaration: workloads, end-to-end
// metrics with the bound by which each may worsen, and per-layer
// metrics with the end-to-end metric each is predicted to move.
// BENCHMARK.json at the repository root is generated from it
// (-benchmark-json) and a test keeps the two in step.

const runSeconds = 22 // BENCHMARK.json run_seconds

type workloadSpec struct {
	Name string
	Why  string
	// Op is what one "operation" is on this workload — the unit of
	// throughput, op_ms_p50 and op_ms_tail.
	Op string
	// Tail is the percentile op_ms_tail reports here, chosen so that at
	// least ten samples lie beyond it at this workload's sample count in
	// run_seconds, on a slow day too.
	Tail float64
}

var workloads = []workloadSpec{
	{
		Name: "design_local",
		Why:  "The paper's main loop (GA, pop 200 x 30 gens) on the in-process pool: high work sharing, so fitness cache, window cache and delta preprocessing all hit.",
		Op:   "candidate (throughput) / generation (latency)",
		Tail: 0.90,
	},
	{
		Name: "design_netcluster",
		Why:  "Same runs and same bits through a 2-worker loopback netcluster: per-candidate leases, gob on the wire, no batched preprocessing.",
		Op:   "candidate (throughput) / generation (latency)",
		Tail: 0.90,
	},
	{
		Name: "score_proteome",
		Why:  "Distinct 200-residue queries against all 224 proteins via Engine.ScoreMany: zero sharing between inputs, so every cache is bypassed.",
		Op:   "query",
		Tail: 0.95, // p99 sits on the slowest twenty queries of a pass, and a busy host's worst moments decide those
	},
	{
		Name: "service_burst",
		Why:  "Rounds of small-job bursts through a live insipsd with a durable job store: HTTP, jobstore, journal and the claim loop are a visible share of every job.",
		Op:   "job (throughput) / burst of 4 jobs (latency)",
		Tail: 0.75, // 22 s hold only 80 to 110 bursts: p90 would have fewer than ten beyond on a slow day
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Layer  string  // per-layer only: the package measured
	Moves  string  // per-layer only: the end-to-end metric and workload it should move
	What   string
}

// endToEnd metrics are reported by every workload from the untraced
// pass. The operation behind throughput/op_ms_* differs by workload
// (workloadSpec.Op).
var endToEnd = []metricSpec{
	{Name: "throughput", Unit: "op/s", Better: "higher", Bound: 0.25,
		What: "operations per second, as the median over slices of the measured pass: candidates per design run, queries per block of 50, jobs per round of two bursts; per second of reference time (hostclock.go)"},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25,
		What: "median operation latency: one generation (OnGeneration to OnGeneration), one ScoreMany call, or one burst of 4 jobs from first POST sent to last terminal state observed; reference ms (hostclock.go)"},
	{Name: "op_ms_tail", Unit: "ms", Better: "lower", Bound: 0.25,
		What: "tail of the same latency at the workload's percentile (p90 generation, p95 query, p75 burst): at least ten samples lie beyond it"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		What: "median of 5 full set-ups: yeastgen.Generate + pipe.New, plus fleet-up (design_netcluster) or store/server boot to first 200 on /healthz (service_burst); reference seconds (hostclock.go)"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10,
		What: "VmHWM when the measured pass ends (before the repeated set-ups), one process per workload"},
}

// perLayer metrics come from the traced pass. A workload that does not
// exercise a layer reports that layer's metrics as 0.
var perLayer = []metricSpec{
	// Set-up.
	{Name: "yeastgen.generate_ms", Unit: "ms", Better: "lower", Layer: "yeastgen", Moves: "setup_s on every workload"},
	{Name: "simindex.build_ms", Unit: "ms", Better: "lower", Layer: "simindex", Moves: "setup_s on every workload"},
	{Name: "pipe.build_ms", Unit: "ms", Better: "lower", Layer: "pipe", Moves: "setup_s on every workload"},
	{Name: "netcluster.fleet_up_ms", Unit: "ms", Better: "lower", Layer: "netcluster", Moves: "setup_s on design_netcluster"},
	{Name: "server.boot_ms", Unit: "ms", Better: "lower", Layer: "server", Moves: "setup_s on service_burst"},

	// core / search / ga.
	{Name: "core.run_s_p50", Unit: "s", Better: "lower", Layer: "core", Moves: "throughput on design_local, design_netcluster"},
	{Name: "core.gen_self_ms_p50", Unit: "ms", Better: "lower", Layer: "core", Moves: "op_ms_p50 on design_local, design_netcluster; nothing on score_proteome"},
	{Name: "search.step_us_per_cand", Unit: "us", Better: "lower", Layer: "search", Moves: "op_ms_p50 on design_local, design_netcluster"},
	{Name: "core.stage_ga_ms_per_gen", Unit: "ms", Better: "lower", Layer: "ga", Moves: "op_ms_p50 on design_local, design_netcluster"},
	{Name: "core.stage_eval_ms_per_gen", Unit: "ms", Better: "lower", Layer: "core", Moves: "op_ms_p50 on design_local, design_netcluster"},
	{Name: "core.stage_generation_ms_per_gen", Unit: "ms", Better: "lower", Layer: "core", Moves: "op_ms_p50 on design_local, design_netcluster"},

	// evalbackend.
	{Name: "evalbackend.fitcache_hit_ratio", Unit: "ratio", Better: "higher", Layer: "evalbackend", Moves: "throughput on design_local"},
	{Name: "evalbackend.cands_in_per_gen", Unit: "count", Better: "lower", Layer: "evalbackend", Moves: "throughput on design_local"},
	{Name: "evalbackend.eval_ms_per_gen_p50", Unit: "ms", Better: "lower", Layer: "evalbackend", Moves: "op_ms_p50 on design_local, design_netcluster"},
	{Name: "evalbackend.abandoned", Unit: "count", Better: "lower", Layer: "evalbackend", Moves: "failed operations on design_netcluster"},

	// cluster / pipe / simindex (replay of captured generations).
	{Name: "cluster.evalall_us_per_cand", Unit: "us", Better: "lower", Layer: "cluster", Moves: "throughput, op_ms_* on design_local; ~nothing on service_burst"},
	{Name: "cluster.dispatch_self_us_per_cand", Unit: "us", Better: "lower", Layer: "cluster", Moves: "throughput on design_local"},
	{Name: "pipe.preprocess_us_per_cand", Unit: "us", Better: "lower", Layer: "pipe", Moves: "throughput on design_local"},
	{Name: "pipe.delta_us_per_cand", Unit: "us", Better: "lower", Layer: "pipe", Moves: "throughput on design_local"},
	{Name: "pipe.score_us_per_pair", Unit: "us", Better: "lower", Layer: "pipe", Moves: "throughput on design_local and score_proteome (moves both)"},
	{Name: "pipe.newquery_us", Unit: "us", Better: "lower", Layer: "pipe", Moves: "op_ms_* on score_proteome, design_netcluster (cold path)"},
	{Name: "pipe.scoremany_us_per_pair", Unit: "us", Better: "lower", Layer: "pipe", Moves: "throughput on score_proteome"},
	{Name: "pipe.profile_entries_per_query", Unit: "count", Better: "lower", Layer: "pipe", Moves: "pipe.score_us_per_pair (exact count)"},
	{Name: "simindex.windows_per_gen", Unit: "count", Better: "lower", Layer: "simindex", Moves: "throughput on design_local (exact count)"},
	{Name: "simindex.window_hit_ratio", Unit: "ratio", Better: "higher", Layer: "simindex", Moves: "throughput on design_local only; 0 on score_proteome and must stay flat"},
	{Name: "simindex.window_evictions_per_gen", Unit: "count", Better: "lower", Layer: "simindex", Moves: "throughput on design_local"},
	{Name: "simindex.delta_reused_window_ratio", Unit: "ratio", Better: "higher", Layer: "simindex", Moves: "throughput on design_local"},
	{Name: "simindex.search_us_per_window", Unit: "us", Better: "lower", Layer: "simindex", Moves: "throughput on design_local and score_proteome (moves both)"},

	// netcluster.
	{Name: "netcluster.evalall_ms_per_gen_p50", Unit: "ms", Better: "lower", Layer: "netcluster", Moves: "op_ms_p50 on design_netcluster only"},
	{Name: "netcluster.overhead_us_per_cand", Unit: "us", Better: "lower", Layer: "netcluster", Moves: "throughput on design_netcluster only"},
	{Name: "netcluster.wire_bytes_per_cand", Unit: "B", Better: "lower", Layer: "netcluster", Moves: "throughput on design_netcluster only"},
	{Name: "netcluster.writes_per_cand", Unit: "count", Better: "lower", Layer: "netcluster", Moves: "throughput on design_netcluster only"},
	{Name: "netcluster.tasks_dispatched_per_gen", Unit: "count", Better: "lower", Layer: "netcluster", Moves: "throughput on design_netcluster only"},
	{Name: "netcluster.tasks_reissued", Unit: "count", Better: "lower", Layer: "netcluster", Moves: "op_ms_tail on design_netcluster"},
	{Name: "netcluster.leases_expired", Unit: "count", Better: "lower", Layer: "netcluster", Moves: "op_ms_tail on design_netcluster"},
	{Name: "netcluster.service_ewma_ms", Unit: "ms", Better: "lower", Layer: "netcluster", Moves: "throughput on design_netcluster only"},
	{Name: "netcluster.net_over_local", Unit: "ratio", Better: "lower", Layer: "netcluster", Moves: "design_netcluster run wall / design_local run wall, same seeds (ROADMAP item 2 gates <= 1.3)"},

	// obs (replay of captured journal records into a temp journal).
	{Name: "obs.append_us_p50", Unit: "us", Better: "lower", Layer: "obs", Moves: "op_ms_p50, throughput on service_burst"},
	{Name: "obs.checkpoint_ms_p50", Unit: "ms", Better: "lower", Layer: "obs", Moves: "op_ms_p50, throughput on service_burst"},
	{Name: "obs.load_checkpoint_ms", Unit: "ms", Better: "lower", Layer: "obs", Moves: "op_ms_p50 on service_burst"},
	{Name: "obs.bytes_per_record", Unit: "B", Better: "lower", Layer: "obs", Moves: "obs.append_us_p50"},
	{Name: "obs.bytes_per_checkpoint", Unit: "B", Better: "lower", Layer: "obs", Moves: "obs.checkpoint_ms_p50"},

	// jobstore (direct calls on a temp store with the S40 spec).
	{Name: "jobstore.create_ms_p50", Unit: "ms", Better: "lower", Layer: "jobstore", Moves: "server.submit_ms_p50, throughput on service_burst"},
	{Name: "jobstore.claim_ms_p50", Unit: "ms", Better: "lower", Layer: "jobstore", Moves: "throughput on service_burst"},
	{Name: "jobstore.renew_ms_p50", Unit: "ms", Better: "lower", Layer: "jobstore", Moves: "throughput on service_burst"},
	{Name: "jobstore.finish_ms_p50", Unit: "ms", Better: "lower", Layer: "jobstore", Moves: "throughput on service_burst"},
	{Name: "jobstore.get_ms_p50", Unit: "ms", Better: "lower", Layer: "jobstore", Moves: "server.get_ms_p50 on service_burst"},
	{Name: "jobstore.list_ms_p50", Unit: "ms", Better: "lower", Layer: "jobstore", Moves: "jobstore.claim_ms_p50, server.submit_ms_p50 (Stats scan)"},
	{Name: "jobstore.wal_bytes_per_job", Unit: "B", Better: "lower", Layer: "jobstore", Moves: "jobstore.*_ms_p50"},

	// server (HTTP client timings, JobJSON timestamps, /metrics deltas).
	{Name: "server.job_ms_p50", Unit: "ms", Better: "lower", Layer: "server", Moves: "op_ms_p50 on service_burst (one job, POST sent to terminal state observed)"},
	{Name: "server.submit_ms_p50", Unit: "ms", Better: "lower", Layer: "server", Moves: "op_ms_p50 on service_burst"},
	{Name: "server.score_ms_p50", Unit: "ms", Better: "lower", Layer: "server", Moves: "throughput on service_burst"},
	{Name: "server.claim_wait_ms_p50", Unit: "ms", Better: "lower", Layer: "server", Moves: "op_ms_p50, op_ms_tail on service_burst"},
	{Name: "server.run_ms_p50", Unit: "ms", Better: "lower", Layer: "server", Moves: "op_ms_p50, throughput on service_burst"},
	{Name: "server.finish_lag_ms_p50", Unit: "ms", Better: "lower", Layer: "server", Moves: "op_ms_p50 on service_burst"},
	{Name: "server.get_ms_p50", Unit: "ms", Better: "lower", Layer: "server", Moves: "op_ms_p50 on service_burst"},
	{Name: "server.polls_per_job", Unit: "count", Better: "lower", Layer: "server", Moves: "throughput on service_burst"},
	{Name: "server.http_429", Unit: "count", Better: "lower", Layer: "server", Moves: "failed operations on service_burst"},
	{Name: "server.stage_evaluate_s_per_job", Unit: "s", Better: "lower", Layer: "server", Moves: "server.run_ms_p50"},
	{Name: "server.stage_generation_s_per_job", Unit: "s", Better: "lower", Layer: "server", Moves: "server.run_ms_p50"},
	{Name: "server.stage_checkpoint_s_per_job", Unit: "s", Better: "lower", Layer: "server", Moves: "server.run_ms_p50"},
	{Name: "server.service_over_direct", Unit: "ratio", Better: "lower", Layer: "server", Moves: "job_ms_p50 / median wall of the same S40 job through core.Design directly"},

	// Process and trace.
	{Name: "process.alloc_bytes_per_op", Unit: "B", Better: "lower", Layer: "process", Moves: "throughput on every workload (GC share)"},
	{Name: "process.gc_pause_ms", Unit: "ms", Better: "lower", Layer: "process", Moves: "op_ms_tail on every workload"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", Layer: "trace", Moves: "nothing: traced vs untraced operation latency"},
	{Name: "trace.unattributed_frac", Unit: "ratio", Better: "lower", Layer: "trace", Moves: "nothing: share of operation wall in no named layer (reported, not gated)"},

	// The host, as the harness's calibration kernel saw it (hostclock.go).
	{Name: "host.cal_ms_p50", Unit: "ms", Better: "lower", Layer: "host", Moves: "nothing: the host's speed over the pass; end-to-end times are scaled by it"},
	{Name: "host.cal_ms_spread", Unit: "ratio", Better: "lower", Layer: "host", Moves: "nothing: quartile spread of the kernel's time over its median, how far the host's speed moved during the pass"},
}

func metricByName(name string) (metricSpec, bool) {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricSpec{}, false
}

// benchmarkJSON renders BENCHMARK.json (exactly the contract's keys).
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
