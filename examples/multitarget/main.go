// Multitarget: the paper's future-work direction — one synthetic protein
// that binds a *set* of targets (e.g. the critical proteins of a
// pathogen) while avoiding everything else. Fitness uses the weakest
// target link: (1 - MAX(PIPE off-target)) * MIN_t(PIPE(seq, t)). It is an
// ordinary core.Designer run over a Problem with CoTargetIDs set.
//
//	go run ./examples/multitarget
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/pipe"
	"repro/internal/yeastgen"
)

func main() {
	log.SetFlags(0)
	proteome, err := yeastgen.Generate(yeastgen.TestParams())
	if err != nil {
		log.Fatal(err)
	}
	engine, err := pipe.New(proteome.Proteins, proteome.Graph, pipe.Config{}, 0)
	if err != nil {
		log.Fatal(err)
	}

	// Two "pathogen" proteins to hit at once; same-component bystanders
	// to avoid. We pick two proteins that share an interaction partner so
	// a single binder is plausible.
	targets := []int{0, 0}
	a := 0
	nbA := proteome.Graph.Neighbors(a)
	if len(nbA) == 0 {
		log.Fatal("protein 0 has no partners; regenerate the proteome")
	}
	// Second target: another protein interacting with the same partner.
	partner := int(nbA[0])
	second := -1
	for _, nb := range proteome.Graph.Neighbors(partner) {
		if int(nb) != a {
			second = int(nb)
			break
		}
	}
	if second < 0 {
		second = (a + 1) % len(proteome.Proteins)
	}
	targets = []int{a, second}

	var nonTargets []int
	for _, id := range proteome.ComponentMembers(proteome.Component(a)) {
		if id != targets[0] && id != targets[1] && len(nonTargets) < 8 {
			nonTargets = append(nonTargets, id)
		}
	}
	fmt.Printf("targets: %s and %s; %d non-targets\n",
		proteome.Proteins[targets[0]].Name(), proteome.Proteins[targets[1]].Name(), len(nonTargets))

	params := ga.DefaultParams()
	params.PopulationSize = 80
	params.SeqLen = 150
	params.Seed = 5
	designer, err := core.NewDesigner(
		core.Problem{Engine: engine, TargetID: targets[0], CoTargetIDs: targets[1:], NonTargetIDs: nonTargets},
		core.Options{
			GA:          params,
			WarmStart:   true,
			Cluster:     cluster.Config{Workers: 2, ThreadsPerWorker: 2},
			Termination: ga.Termination{MaxGenerations: 60},
		})
	if err != nil {
		log.Fatal(err)
	}
	res, err := designer.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nafter %d generations: fitness %.3f\n", res.Generations, res.BestDetail.Fitness)
	for _, t := range targets {
		fmt.Printf("  PIPE vs %s: %.3f\n", proteome.Proteins[t].Name(), engine.Score(res.Best, t, 2))
	}
	fmt.Printf("  bottleneck (min target): %.3f\n", res.BestDetail.Target)
	fmt.Printf("  max off-target:          %.3f\n", res.BestDetail.MaxNonTarget)
	fmt.Printf("  sequence: %s\n", res.Best.Residues())
}
