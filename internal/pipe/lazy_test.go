package pipe_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/pipe"
	"repro/internal/yeastgen"
)

// A design run reads the database entries of its target and its
// non-targets and no others, so on a fresh engine a D200-shaped run
// (the benchmark's proteome, problem and population, fewer
// generations) builds exactly those.
func TestDesignBuildsOnlyItsProblemsEntries(t *testing.T) {
	p := yeastgen.DefaultParams()
	p.NumProteins = 200
	pr, err := yeastgen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := pipe.New(pr.Proteins, pr.Graph, pipe.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := pipe.EntriesBuilt(eng); n != 0 {
		t.Fatalf("pipe.New built %d database entries, want 0", n)
	}
	target := pr.WetlabTargetIDs()[0]
	var nonTargets []int
	for _, id := range pr.ComponentMembers(pr.Component(target)) {
		if id != target && len(nonTargets) < 8 {
			nonTargets = append(nonTargets, id)
		}
	}
	gp := ga.DefaultParams()
	gp.PopulationSize, gp.SeqLen, gp.Seed = 200, 130, 1
	res, err := core.Design(eng, target, nonTargets, core.Options{
		GA:          gp,
		WarmStart:   true,
		Cluster:     cluster.Config{Workers: 2, ThreadsPerWorker: 1},
		Termination: ga.Termination{MinGenerations: 4, MaxGenerations: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestDetail.Target <= 0 {
		t.Fatalf("best target score %v: the run never scored its non-targets", res.BestDetail.Target)
	}
	if n, want := pipe.EntriesBuilt(eng), int64(1+len(nonTargets)); n != want {
		t.Fatalf("a design against 1 target and %d non-targets built %d entries, want %d", len(nonTargets), n, want)
	}
}
