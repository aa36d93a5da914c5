package repro

import (
	"context"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/netcluster"
	"repro/internal/pipe"
	"repro/internal/seq"
	"repro/internal/wetlab"
	"repro/internal/yeastgen"
)

// TestEndToEndPipeline drives the full system exactly as a user would:
// synthesize the proteome, build the PIPE engine,
// design an inhibitor over the TCP master/worker deployment, and
// validate it in the simulated wet lab. This is the repository's
// integration smoke test; each stage's correctness details live in the
// per-package suites.
func TestEndToEndPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline skipped in -short mode")
	}

	// 1. Substrate: proteome + known-interaction network.
	proteome, err := yeastgen.Generate(yeastgen.TestParams())
	if err != nil {
		t.Fatal(err)
	}

	// 2. PIPE engine.
	engine, err := pipe.New(proteome.Proteins, proteome.Graph, pipe.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}

	// 3. Problem: the planted wet-lab target and its cytoplasmic
	// neighbors.
	target := proteome.WetlabTargetIDs()[0]
	var nonTargets []int
	for _, id := range proteome.ComponentMembers(proteome.Component(target)) {
		if id != target && len(nonTargets) < 8 {
			nonTargets = append(nonTargets, id)
		}
	}

	// 4. Distributed evaluation: TCP master + two workers score one
	// population; scores must agree with the in-process pool.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	master := netcluster.NewMaster(netcluster.NewSetup(engine, target, nonTargets, 2), ln)
	workers, stopWorkers := context.WithCancel(context.Background())
	for w := 0; w < 2; w++ {
		go netcluster.RunWorkerLoop(workers, master.Addr(), netcluster.WorkerOptions{})
	}
	deadline := time.Now().Add(30 * time.Second)
	for master.Workers() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("workers did not connect")
		}
		time.Sleep(10 * time.Millisecond)
	}
	rng := rand.New(rand.NewSource(9))
	candidates := core.NaturalFragmentPopulation(engine, rng, 6, 130)
	remote, err := master.EvaluateAll(candidates)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := cluster.New(engine, target, nonTargets, cluster.Config{Workers: 2, ThreadsPerWorker: 2})
	if err != nil {
		t.Fatal(err)
	}
	local := pool.EvaluateAll(candidates)
	for i := range candidates {
		if remote[i].TargetScore != local[i].TargetScore {
			t.Fatalf("candidate %d: remote %v != local %v", i, remote[i].TargetScore, local[i].TargetScore)
		}
	}
	master.Close()
	stopWorkers()

	// 5. Design with the production parameter mix (scaled down).
	params := ga.DefaultParams()
	params.PopulationSize = 80
	params.SeqLen = 130
	params.Seed = 3
	design, err := core.Design(engine, target, nonTargets, core.Options{
		GA:          params,
		WarmStart:   true,
		Cluster:     cluster.Config{Workers: 2, ThreadsPerWorker: 2},
		Termination: ga.Termination{MinGenerations: 40, StallGenerations: 30, MaxGenerations: 80},
	})
	if err != nil {
		t.Fatal(err)
	}
	if design.BestDetail.Fitness < 0.3 {
		t.Fatalf("design fitness %.3f too low for the planted target", design.BestDetail.Fitness)
	}
	if design.BestDetail.MaxNonTarget >= design.BestDetail.Target {
		t.Fatal("design is not specific")
	}

	// 6. Ground truth and wet lab: the designed protein must truly bind
	// and sensitize the InSiPS strain.
	if !proteome.TrulyBinds(design.Best, target) {
		t.Fatalf("designed protein does not truly bind (affinity gap); fitness %.3f",
			design.BestDetail.Fitness)
	}
	assay := wetlab.Experiment{
		Proteome:  proteome,
		TargetID:  target,
		Inhibitor: design.Best,
		Stressor:  wetlab.Cycloheximide65(),
		Seed:      11,
	}
	table := assay.Run(5)
	if !table.InhibitionObserved(0.08) {
		avg := table.Averages()
		t.Fatalf("wet lab does not show inhibition: WT %.2f, WT+ %.2f, InSiPS %.2f, KO %.2f",
			avg[wetlab.WT], avg[wetlab.WTPlasmid], avg[wetlab.WTInSiPS], avg[wetlab.Knockout])
	}

	// 7. A random protein control must not show inhibition.
	control := assay
	control.Inhibitor = seq.Random(rng, "control", 130, seq.YeastComposition())
	if control.Run(5).InhibitionObserved(0.08) {
		t.Fatal("random control protein shows inhibition")
	}
}
