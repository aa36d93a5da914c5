package repro

import (
	"net"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/evalbackend"
	"repro/internal/faultnet"
	"repro/internal/ga"
	"repro/internal/netcluster"
	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/yeastgen"
)

// TestElasticDispatchChaosBitIdentical is the elastic-dispatch acceptance
// test: a full design run over a four-worker distributed fleet under
// churn and stragglers — two workers faultnet-stalled after the first
// generation, one flapping via graceful drain and rejoin — must produce
// a trajectory bit-identical to the in-process pool, because every
// degraded path (lease expiry, quarantine, hedge, retry) re-scores
// candidates with the same deterministic engine. The journal
// conservation law must hold on every record even while hedges and
// retries overlap.
func TestElasticDispatchChaosBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}

	proteome, err := yeastgen.Generate(yeastgen.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	engine, err := pipe.New(proteome.Proteins, proteome.Graph, pipe.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	target := proteome.WetlabTargetIDs()[0]
	var nonTargets []int
	for _, id := range proteome.ComponentMembers(proteome.Component(target)) {
		if id != target && len(nonTargets) < 6 {
			nonTargets = append(nonTargets, id)
		}
	}
	problem := core.Problem{Engine: engine, TargetID: target, NonTargetIDs: nonTargets}

	// Rounds must be long enough (~100ms) that a stalled worker's
	// handler is guaranteed to pull a lease mid-round and burn it.
	params := ga.DefaultParams()
	params.PopulationSize = 64
	params.SeqLen = 200
	params.Seed = 17
	term := ga.Termination{MinGenerations: 6, StallGenerations: 6, MaxGenerations: 6}
	clusterCfg := cluster.Config{Workers: 2, ThreadsPerWorker: 1}

	run := func(backend evalbackend.Backend, onGen func(int)) ([]obs.GenerationRecord, core.Result) {
		t.Helper()
		var recs []obs.GenerationRecord
		d, err := core.NewDesigner(problem, core.Options{
			GA:          params,
			Cluster:     clusterCfg,
			Termination: term,
			Backend:     backend,
			OnJournalRecord: func(rec *obs.GenerationRecord) {
				recs = append(recs, *rec)
				if onGen != nil {
					onGen(rec.Generation)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		return recs, res
	}

	// Reference trajectory: plain in-process pool.
	refRecs, refRes := run(nil, nil)

	// Chaos fleet: a TCP master with tight leases so stalled workers are
	// quarantined fast (MaxAttempts=1 — the retry middleware, not the
	// master, is the recovery path under test). The lease still has to
	// outlast a whole round and the hedge timer's 500ms cap: a stalled
	// worker takes a chunk of tasks out of the round with it, so the
	// healthy workers finish the rest sooner than a normal round and
	// only the wait for the lease keeps the round open past the timer.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m := netcluster.NewMasterOptions(netcluster.NewSetup(engine, target, nonTargets, 1), ln, netcluster.Options{
		LeaseTimeout:      time.Second,
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatMisses:   1000, // stalled conns are reaped by lease expiry, not liveness
		MaxAttempts:       1,
	})
	defer m.Close()
	ctx := t.Context()

	// Two straggler workers behind one fault profile, stalled after the
	// first generation completes.
	prof := faultnet.NewProfile()
	for i := 0; i < 2; i++ {
		go netcluster.RunWorkerLoop(ctx, m.Addr(), netcluster.WorkerOptions{Dial: faultnet.Dialer(prof)})
	}
	// One flapper: drains gracefully after generations 1 and 2, rejoins
	// after each, then stays for the rest of the run.
	drain1 := make(chan struct{})
	drain2 := make(chan struct{})
	go func() {
		for _, drain := range []chan struct{}{drain1, drain2} {
			done := make(chan struct{})
			go func() {
				netcluster.RunWorkerLoop(ctx, m.Addr(), netcluster.WorkerOptions{Drain: drain})
				close(done)
			}()
			select {
			case <-done:
			case <-ctx.Done():
				return
			}
		}
		netcluster.RunWorkerLoop(ctx, m.Addr(), netcluster.WorkerOptions{})
	}()
	// One healthy worker for the whole run.
	go netcluster.RunWorkerLoop(ctx, m.Addr(), netcluster.WorkerOptions{})
	deadline := time.Now().Add(30 * time.Second)
	for m.Workers() < 4 {
		if time.Now().After(deadline) {
			t.Fatal("chaos fleet did not assemble")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The elastic chain: hedge the master's stragglers on a local pool,
	// and recover anything the master abandons on another.
	hedgePool, err := evalbackend.NewPool(engine, target, nonTargets, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	retryPool, err := evalbackend.NewPool(engine, target, nonTargets, clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	hedged := evalbackend.WithHedging(evalbackend.NewMaster(m), hedgePool, evalbackend.HedgingConfig{
		Fraction:   0.25,
		Percentile: 0.50,
		MinDelay:   5 * time.Millisecond,
		MaxDelay:   500 * time.Millisecond,
	}, nil)
	chain := evalbackend.WithRetry(hedged, retryPool, nil)

	// Chaos events fire deterministically off the generation journal:
	// gens 1 and 2 drain the flapper, gen 4 stalls the stragglers — late
	// enough that the hedging layer's latency history is warmed up, so
	// the 1s quarantine stall in generation 5 must arm a hedge.
	chaosRecs, chaosRes := run(chain, func(gen int) {
		switch gen {
		case 1:
			close(drain1)
		case 2:
			close(drain2)
		case 4:
			prof.Stall()
		}
	})

	// Trajectories must be bit-identical: same generations, same
	// population hashes, same fitness series, same final design.
	if len(chaosRecs) != len(refRecs) {
		t.Fatalf("generation count diverged: chaos %d vs reference %d", len(chaosRecs), len(refRecs))
	}
	for i := range refRecs {
		ref, got := refRecs[i], chaosRecs[i]
		if got.PopHash != ref.PopHash {
			t.Fatalf("gen %d population diverged: %s vs %s", ref.Generation, got.PopHash, ref.PopHash)
		}
		if got.BestFitness != ref.BestFitness || got.MeanFitness != ref.MeanFitness {
			t.Fatalf("gen %d fitness diverged: best %v/%v mean %v/%v",
				ref.Generation, got.BestFitness, ref.BestFitness, got.MeanFitness, ref.MeanFitness)
		}
		if got.AbandonedTasks != 0 {
			t.Fatalf("gen %d leaked %d abandoned tasks through the retry layer", got.Generation, got.AbandonedTasks)
		}
		if got.Population > 0 && got.AccountedCandidates() != got.Population {
			t.Fatalf("gen %d accounting violated: evaluated %d + cache %d + abandoned %d + estimated %d != population %d (hedged wins %d)",
				got.Generation, got.Evaluated, got.CacheHits, got.AbandonedTasks,
				got.SurrogateEstimated, got.Population, got.HedgedWins)
		}
	}
	if chaosRes.Best.Residues() != refRes.Best.Residues() {
		t.Fatal("final designed sequence diverged from the in-process reference")
	}
	if chaosRes.BestDetail != refRes.BestDetail {
		t.Fatalf("final design detail diverged: %+v vs %+v", chaosRes.BestDetail, refRes.BestDetail)
	}

	// The chaos actually happened: the flapper drained twice, the
	// stalled workers burned leases into quarantine, and the hedging
	// layer armed against the induced stragglers.
	st := m.Stats()
	if st.WorkersDrained < 2 {
		t.Fatalf("flapper never drained: %+v", st)
	}
	if st.TasksQuarantined < 1 {
		t.Fatalf("stalled workers burned no leases: %+v", st)
	}
	cs := chain.Stats()
	if cs.HedgesIssued == 0 {
		t.Fatalf("hedging never armed against the stall: %+v", cs)
	}
	if cs.Recovered != cs.Retried {
		t.Fatalf("retry failed to recover abandoned tasks: %+v", cs)
	}
}
