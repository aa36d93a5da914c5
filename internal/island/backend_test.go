package island

import (
	"context"
	"errors"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/evalbackend"
	"repro/internal/netcluster"
	"repro/internal/obs"
	"repro/internal/seq"
)

// poolBackend builds an in-process pool backend for the test problem.
func poolBackend(t *testing.T) *evalbackend.PoolBackend {
	t.Helper()
	p := problem(t)
	pb, err := evalbackend.NewPool(p.Engine, p.TargetID, p.NonTargetIDs, cluster.Config{Workers: 1, ThreadsPerWorker: 1})
	if err != nil {
		t.Fatal(err)
	}
	return pb
}

func TestRunValidatesBackendAndJournalCounts(t *testing.T) {
	p := problem(t)
	cfg := Config{Islands: 3, Backends: []evalbackend.Backend{poolBackend(t)}}
	if _, err := Run(context.Background(), p, runOpts(10, 2, 1), cfg); err == nil {
		t.Error("backend count mismatch accepted")
	}
	cfg = Config{Islands: 3, Journals: make([]*obs.RunJournal, 2)}
	if _, err := Run(context.Background(), p, runOpts(10, 2, 1), cfg); err == nil {
		t.Error("journal count mismatch accepted")
	}
	if _, err := Resume(context.Background(), p, runOpts(10, 2, 1), Config{Islands: 3}, make([]obs.Checkpoint, 2)); err == nil {
		t.Error("checkpoint count mismatch accepted")
	}
	cps := []obs.Checkpoint{{Generation: 3}, {Generation: 4}}
	if _, err := Resume(context.Background(), p, runOpts(10, 2, 1), Config{Islands: 2}, cps); err == nil {
		t.Error("checkpoints at different generations accepted")
	}
}

func TestRunContextCancel(t *testing.T) {
	p := problem(t)
	cfg := Config{Islands: 2, SyncInterval: 1, Migrants: 1}

	// A pre-cancelled context stops before any generation runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, p, runOpts(8, 50, 1), cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Generations != 0 {
		t.Fatalf("pre-cancelled run executed %d generations", res.Generations)
	}

	// Cancelling mid-run stops all islands within one generation.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	cfg.OnGeneration = func(gen int, _ []float64) {
		if gen == 2 {
			cancel2()
		}
	}
	res, err = Run(ctx2, p, runOpts(8, 50, 1), cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Generations != 3 {
		t.Fatalf("run executed %d generations after cancel at generation 3", res.Generations)
	}
	for k, curve := range res.Curves {
		if len(curve) != 3 {
			t.Fatalf("island %d curve has %d points, want 3", k, len(curve))
		}
	}
	if res.Best.Seq.Len() == 0 {
		t.Fatal("partial result lost the best individual")
	}
}

// TestNetclusterBackendTrajectoryMatchesInProcess is the acceptance test
// for island-over-netcluster: two islands, each backed by its own
// distributed master with two real TCP workers, must reproduce the
// in-process run's per-generation best-fitness trajectories bit for bit.
func TestNetclusterBackendTrajectoryMatchesInProcess(t *testing.T) {
	p := problem(t)
	opts := runOpts(10, 4, 99)
	cfg := Config{Islands: 2, SyncInterval: 2, Migrants: 1}

	want, err := Run(context.Background(), p, opts, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// One master per island: netcluster serializes rounds per master
	// (ErrBusy), and islands evaluate concurrently.
	workerCtx, stopWorkers := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	backends := make([]evalbackend.Backend, cfg.Islands)
	for k := range backends {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		m := netcluster.NewMaster(netcluster.NewSetup(p.Engine, p.TargetID, p.NonTargetIDs, 1), ln)
		t.Cleanup(func() { m.Close() })
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(addr string) {
				defer wg.Done()
				netcluster.RunWorkerLoop(workerCtx, addr, netcluster.WorkerOptions{})
			}(m.Addr())
		}
		backends[k] = evalbackend.NewMaster(m)
	}
	t.Cleanup(func() { stopWorkers(); wg.Wait() })

	dcfg := cfg
	dcfg.Backends = backends
	got, recs := runJournaled(t, opts, dcfg)

	if !reflect.DeepEqual(got.Curves, want.Curves) {
		t.Fatalf("netcluster trajectories diverged from in-process run:\ngot:  %v\nwant: %v",
			got.Curves, want.Curves)
	}
	if got.Best.Fitness != want.Best.Fitness || got.Best.Seq.Residues() != want.Best.Seq.Residues() {
		t.Fatalf("best individual diverged: got %f %q, want %f %q",
			got.Best.Fitness, got.Best.Seq.Residues(), want.Best.Fitness, want.Best.Seq.Residues())
	}
	if got.BestIsland != want.BestIsland || got.Migrations != want.Migrations {
		t.Fatalf("run shape diverged: got island %d / %d migrations, want %d / %d",
			got.BestIsland, got.Migrations, want.BestIsland, want.Migrations)
	}
	goldenNet2.assert(t, got, recs)
}

func TestPerIslandJournals(t *testing.T) {
	pop := 8
	res, recs := runJournaled(t, runOpts(pop, 3, 11), Config{Islands: 2, SyncInterval: 1, Migrants: 1})
	for k := range recs {
		if len(recs[k]) != 3 {
			t.Fatalf("island %d journal has %d records, want 3", k, len(recs[k]))
		}
		for g, rec := range recs[k] {
			if rec.Generation != g {
				t.Fatalf("island %d record %d has generation %d", k, g, rec.Generation)
			}
			if rec.Population != pop || rec.AccountedCandidates() != pop || rec.Strategy != "ga" {
				t.Fatalf("island %d gen %d: strategy %q accounted %d of population %d, want %d",
					k, g, rec.Strategy, rec.AccountedCandidates(), rec.Population, pop)
			}
			if rec.BestFitness != res.Curves[k][g] {
				t.Fatalf("island %d gen %d journal best %f != curve %f",
					k, g, rec.BestFitness, res.Curves[k][g])
			}
			if rec.PopHash == "" {
				t.Fatalf("island %d gen %d record missing pop hash", k, g)
			}
		}
	}
}

// hintSpy records how many parent hints reach an island's leaf backend
// with each generation.
type hintSpy struct {
	*evalbackend.PoolBackend
	hints []int
}

func (s *hintSpy) EvaluateAll(ctx context.Context, seqs []seq.Sequence) ([]cluster.Result, error) {
	h, _ := cluster.ParentHintsFrom(ctx)
	s.hints = append(s.hints, len(h))
	return s.PoolBackend.EvaluateAll(ctx, seqs)
}

// TestParentHintsReachBackendBetweenSyncs: an island is a Designer, so
// its backend gets generation ancestry (and with it delta preprocessing)
// on every generation whose batch the local GA built — all but the
// initial one and those right after a migration rewrote the batch.
func TestParentHintsReachBackendBetweenSyncs(t *testing.T) {
	spies := []*hintSpy{{PoolBackend: poolBackend(t)}, {PoolBackend: poolBackend(t)}}
	opts := runOpts(8, 5, 13)
	opts.DisableFitnessCache = true // every generation reaches the leaf
	cfg := Config{Islands: 2, SyncInterval: 2, Migrants: 1, Backends: []evalbackend.Backend{spies[0], spies[1]}}
	if _, err := Run(context.Background(), problem(t), opts, cfg); err != nil {
		t.Fatal(err)
	}
	for k, s := range spies {
		if len(s.hints) != 5 {
			t.Fatalf("island %d backend saw %d rounds, want 5", k, len(s.hints))
		}
		// Syncs follow generations 1 and 3, so batches 2 and 4 were rewritten.
		for g, n := range s.hints {
			if wantHints := g == 1 || g == 3; (n > 0) != wantHints {
				t.Errorf("island %d generation %d: %d parent hints, want some = %v", k, g, n, wantHints)
			}
		}
	}
}

// TestResumeBitIdentical is the island model's golden resume test:
// interrupt a journaled run right after a sync generation, resume every
// island from its checkpoint, and require curves, best design and every
// journaled pop_hash to match a run that was never interrupted.
func TestResumeBitIdentical(t *testing.T) {
	p := problem(t)
	opts := runOpts(12, 9, 31)
	opts.WarmStart = true
	cfg := Config{Islands: 3, SyncInterval: 2, Migrants: 2}

	fullDirs, fullJournals := openJournals(t, cfg.Islands, 4)
	fullCfg := cfg
	fullCfg.Journals = fullJournals
	full, err := Run(context.Background(), p, opts, fullCfg)
	if err != nil {
		t.Fatal(err)
	}
	fullRecs := closeAndRead(t, fullDirs, fullJournals)
	if full.Best.Fitness == 0 {
		t.Fatal("warm-started run never left zero fitness; the comparison would be vacuous")
	}

	// Generation 3 is followed by a sync, so the checkpoints must hold
	// the batches migration rewrote.
	dirs, journals := openJournals(t, cfg.Islands, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cut := cfg
	cut.Journals = journals
	cut.OnGeneration = func(gen int, _ []float64) {
		if gen == 3 {
			cancel()
		}
	}
	if _, err := Run(ctx, p, opts, cut); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run error = %v, want context.Canceled", err)
	}
	cps := make([]obs.Checkpoint, cfg.Islands)
	for k := range cps {
		if err := journals[k].Close(); err != nil {
			t.Fatal(err)
		}
		if cps[k], err = obs.LoadCheckpoint(dirs[k]); err != nil {
			t.Fatal(err)
		}
		if cps[k].Generation != 4 {
			t.Fatalf("island %d checkpointed at generation %d, want 4", k, cps[k].Generation)
		}
		if journals[k], err = obs.OpenJournal(dirs[k], obs.JournalOptions{CheckpointEvery: 4}); err != nil {
			t.Fatal(err)
		}
	}
	resumedCfg := cfg
	resumedCfg.Journals = journals
	resumed, err := Resume(context.Background(), p, opts, resumedCfg, cps)
	if err != nil {
		t.Fatal(err)
	}
	resumedRecs := closeAndRead(t, dirs, journals)

	if !reflect.DeepEqual(resumed, full) {
		t.Fatalf("resumed run diverged:\nresumed %+v\nfull    %+v", resumed, full)
	}
	for k := range fullRecs {
		if len(resumedRecs[k]) != len(fullRecs[k]) {
			t.Fatalf("island %d: %d journal records, uninterrupted run has %d", k, len(resumedRecs[k]), len(fullRecs[k]))
		}
		for g := range fullRecs[k] {
			if resumedRecs[k][g].PopHash != fullRecs[k][g].PopHash {
				t.Fatalf("island %d pop hash diverges at generation %d: %s vs %s",
					k, g, resumedRecs[k][g].PopHash, fullRecs[k][g].PopHash)
			}
		}
	}
}

// TestFailingIslandReleasesBarrier: when one island's backend fails
// mid-run, the islands waiting for it at the barrier are released and
// Run returns that island's error (a deadlock here would hit the test
// timeout).
func TestFailingIslandReleasesBarrier(t *testing.T) {
	boom := errors.New("rack 1 lost power")
	healthy := synthBackends(3)
	rounds := 0
	failing := evalbackend.Func(func(seqs []seq.Sequence) ([]cluster.Result, error) {
		if rounds++; rounds > 3 {
			return nil, boom
		}
		return healthy[1].EvaluateAll(context.Background(), seqs)
	})
	cfg := Config{Islands: 3, SyncInterval: 1, Migrants: 1,
		Backends: []evalbackend.Backend{healthy[0], failing, healthy[2]}}
	res, err := Run(context.Background(), problem(t), runOpts(10, 40, 17), cfg)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "island 1") {
		t.Fatalf("err = %v, want island 1's backend error", err)
	}
	if res.Generations != 3 {
		t.Errorf("partial result reports %d completed generations, want 3", res.Generations)
	}
}

// TestJournalConservationUnderRetry: every record of every island
// satisfies the journal's conservation identity, including an island
// whose backend abandons one candidate per round behind WithRetry —
// there the abandoned candidate is scored by the fallback, and the
// Designer counts it once, as evaluated.
func TestJournalConservationUnderRetry(t *testing.T) {
	inner := poolBackend(t)
	lossy := evalbackend.Func(func(seqs []seq.Sequence) ([]cluster.Result, error) {
		results, err := inner.EvaluateAll(context.Background(), seqs)
		if err != nil {
			return nil, err
		}
		results[0] = cluster.Result{Index: 0, Err: netcluster.ErrTaskAbandoned}
		return results, nil
	})
	retried := evalbackend.WithRetry(lossy, poolBackend(t), nil)
	pop := 10
	opts := runOpts(pop, 7, 23)
	opts.WarmStart = true
	_, recs := runJournaled(t, opts, Config{Islands: 2, SyncInterval: 2, Migrants: 1,
		Backends: []evalbackend.Backend{poolBackend(t), retried}})
	for k := range recs {
		for _, rec := range recs[k] {
			if rec.Population != pop || rec.AccountedCandidates() != rec.Population || rec.AbandonedTasks != 0 {
				t.Errorf("island %d gen %d: accounted %d of population %d (evaluated %d, cache hits %d, abandoned %d)",
					k, rec.Generation, rec.AccountedCandidates(), rec.Population, rec.Evaluated, rec.CacheHits, rec.AbandonedTasks)
			}
		}
	}
	if st := retried.Stats(); st[evalbackend.Recovered] == 0 || st[evalbackend.Recovered] != st[evalbackend.Retried] {
		t.Errorf("retry recovered %d of %d abandoned candidates; the run did not exercise recovered accounting",
			st[evalbackend.Recovered], st[evalbackend.Retried])
	}
}
