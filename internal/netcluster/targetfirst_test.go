package netcluster_test

import (
	"context"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/evalbackend"
	"repro/internal/ga"
	"repro/internal/netcluster"
	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/yeastgen"
)

// TestTargetFirstOverTheWire: a master carries the caller's target-first
// mark to its workers. A target-first round over two loopback workers
// comes back target-only for exactly the candidates whose target scores
// 0 in a fresh evaluation, and equal to it for the rest; a round without
// the mark comes back in full. A warm-start design run on that fleet
// journals the same lines as the same run on the in-process pool, with
// the timing fields and the engine's counters (which a remote run reads
// off the master's idle engine) zeroed.
func TestTargetFirstOverTheWire(t *testing.T) {
	pr, err := yeastgen.Generate(yeastgen.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := pipe.New(pr.Proteins, pr.Graph, pipe.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	target := pr.WetlabTargetIDs()[0]
	var nonTargets []int
	for _, id := range pr.ComponentMembers(pr.Component(target)) {
		if id != target && len(nonTargets) < 6 {
			nonTargets = append(nonTargets, id)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m := netcluster.NewMasterOptions(netcluster.NewSetup(eng, target, nonTargets, 1), ln, netcluster.Options{})
	defer m.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for w := 0; w < 2; w++ {
		go netcluster.RunWorkerLoop(ctx, m.Addr(), netcluster.WorkerOptions{})
	}
	deadline := time.Now().Add(30 * time.Second)
	for m.Workers() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 2 workers connected", m.Workers())
		}
		time.Sleep(5 * time.Millisecond)
	}

	ref, err := cluster.New(eng, target, nonTargets, cluster.Config{Workers: 1, ThreadsPerWorker: 1})
	if err != nil {
		t.Fatal(err)
	}
	gen := core.NaturalFragmentPopulation(eng, rand.New(rand.NewSource(5)), 60, 90)
	want := ref.EvaluateAllReport(gen).Results
	marked := cluster.WithTargetFirst(cluster.WithParentHints(context.Background(), map[string]string{}))
	got, err := m.EvaluateAllContext(marked, gen)
	if err != nil {
		t.Fatal(err)
	}
	targetOnly := 0
	for i, r := range got {
		switch {
		case r.Err != nil:
			t.Fatalf("candidate %d: %v", i, r.Err)
		case r.TargetOnly != (want[i].TargetScore == 0):
			t.Fatalf("candidate %d: target-only %v, fresh target score %v", i, r.TargetOnly, want[i].TargetScore)
		case r.TargetOnly:
			targetOnly++
			if r.TargetScore != 0 || r.NonTargetScores != nil {
				t.Fatalf("candidate %d: target-only result %+v", i, r)
			}
		case !sameScores(r, want[i]):
			t.Fatalf("candidate %d: %+v, fresh evaluation %+v", i, r, want[i])
		}
	}
	t.Logf("%d of %d candidates target-only", targetOnly, len(gen))
	if targetOnly == 0 || targetOnly == len(gen) {
		t.Fatalf("%d of %d candidates target-only, want some and not all", targetOnly, len(gen))
	}
	got, err = m.EvaluateAll(gen)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if r.TargetOnly || !sameScores(r, want[i]) {
			t.Fatalf("candidate %d of an unmarked round: %+v, fresh evaluation %+v", i, r, want[i])
		}
	}

	params := ga.DefaultParams()
	params.PopulationSize = 40
	params.SeqLen = 80
	params.Seed = 23
	run := func(backend evalbackend.Backend) []obs.GenerationRecord {
		var recs []obs.GenerationRecord
		_, err := core.Design(eng, target, nonTargets, core.Options{
			GA:          params,
			WarmStart:   true,
			Cluster:     cluster.Config{Workers: 2, ThreadsPerWorker: 1},
			Termination: ga.Termination{MinGenerations: 8, MaxGenerations: 8},
			Backend:     backend,
			OnJournalRecord: func(rec *obs.GenerationRecord) {
				r := *rec
				r.TimeUnixMS, r.EvalWallMS, r.GenWallMS = 0, 0, 0
				r.WinCacheHits, r.WinCacheMisses, r.DeltaQueries = 0, 0, 0
				recs = append(recs, r)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	local, remote := run(nil), run(evalbackend.NewMaster(m))
	if len(remote) != len(local) {
		t.Fatalf("%d generations over the wire, %d in process", len(remote), len(local))
	}
	for g := range local {
		if remote[g] != local[g] {
			t.Fatalf("generation %d over the wire:\n%+v\nin process:\n%+v", g, remote[g], local[g])
		}
	}
}

func sameScores(a, b cluster.Result) bool {
	if a.TargetScore != b.TargetScore || len(a.NonTargetScores) != len(b.NonTargetScores) {
		return false
	}
	for j := range a.NonTargetScores {
		if a.NonTargetScores[j] != b.NonTargetScores[j] {
			return false
		}
	}
	return true
}
