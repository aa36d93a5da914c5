package main

import (
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/pipe"
	"repro/internal/seq"
	"repro/internal/simindex"
	"repro/internal/yeastgen"
)

// Shared input shapes. Everything is generated in the harness from the
// run seed; the program under test sees only the generated inputs.
const (
	proteomeSize = 200 // P200: yeastgen.DefaultParams with NumProteins=200

	// D200: the paper's main loop at a size one generation takes ~50 ms.
	d200Population  = 200
	d200SeqLen      = 130
	d200Generations = 30
	d200NonTargets  = 8
	d200WarmRuns    = 3 // one run misses ~220k windows; the 524288-entry cache is full after 3
	netWarmRuns     = 1 // remote workers keep no window cache: one run warms the connections and the master's service-time estimate

	// S40: docs/CAPACITY.md "small" job.
	s40Population  = 40
	s40SeqLen      = 60
	s40Generations = 10
	s40NonTargets  = 5

	queryLen = 200 // score_proteome query length
)

// problem is the P200 proteome with its engine and the design task every
// workload shares: first wet-lab target, non-targets drawn from the
// target's own cellular component.
type problem struct {
	pr         *yeastgen.Proteome
	eng        *pipe.Engine
	target     int
	nonTargets []int // d200NonTargets of them; S40 uses the first s40NonTargets
}

// proteomeSeed is fixed: the proteome is the database the system
// serves, not a request. The run seed draws the requests (GA seeds,
// query sequences, job seeds) over it. A proteome per seed moves the
// target's neighbourhood and with it the cost of every operation by
// +-25 %, which no regression bound could see through.
const proteomeSeed = 1

func proteomeParams() yeastgen.Params {
	p := yeastgen.DefaultParams()
	p.NumProteins = proteomeSize
	p.Seed = proteomeSeed
	return p
}

// buildProblem is the set-up every workload pays: generate the
// proteome, then build the PIPE engine (similarity index + per-protein
// database). tr, when non-nil, gets one span per step.
func buildProblem(tr *tracer, op int) (*problem, error) {
	root := tr.start("setup.problem", rootLayer, op, 0)
	defer tr.end(root)

	sp := tr.start("yeastgen.Generate", "yeastgen", op, root)
	pr, err := yeastgen.Generate(proteomeParams())
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("generating proteome: %w", err)
	}
	sp = tr.start("pipe.New", "pipe", op, root)
	eng, err := pipe.New(pr.Proteins, pr.Graph, pipe.Config{}, 0)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("building engine: %w", err)
	}
	targets := pr.WetlabTargetIDs()
	if len(targets) == 0 {
		return nil, fmt.Errorf("proteome has no wet-lab target")
	}
	p := &problem{pr: pr, eng: eng, target: targets[0]}
	for _, id := range pr.ComponentMembers(pr.Component(p.target)) {
		if id != p.target && len(p.nonTargets) < d200NonTargets {
			p.nonTargets = append(p.nonTargets, id)
		}
	}
	if len(p.nonTargets) < d200NonTargets {
		return nil, fmt.Errorf("target component has only %d other members, need %d", len(p.nonTargets), d200NonTargets)
	}
	if tr != nil {
		// pipe.New's first step on its own, outside the set-up proper.
		sp := tr.start("simindex.Build", "simindex", op, 0)
		_, err := simindex.Build(pr.Proteins, eng.Config().Index)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *problem) name(id int) string { return p.pr.Graph.Name(id) }

// designShape is one fixed design job size.
type designShape struct {
	population, seqLen, generations int
	workers                         int
}

var (
	shapeD200  = designShape{d200Population, d200SeqLen, d200Generations, 2}
	shapeS40   = designShape{s40Population, s40SeqLen, s40Generations, 1}
	shapeSmoke = designShape{40, 130, 3, 2} // design workloads under -smoke
)

// gaSeed is the GA seed of run r under harness seed s: distinct per run,
// identical across the in-process and netcluster paths.
func gaSeed(s int64, r int) int64 { return s*1000 + int64(r) }

// options returns the core.Options of one design run of this shape.
func (d designShape) options(seed int64) core.Options {
	gp := ga.DefaultParams()
	gp.PopulationSize = d.population
	gp.SeqLen = d.seqLen
	gp.Seed = seed
	return core.Options{
		GA:        gp,
		WarmStart: true,
		Cluster:   cluster.Config{Workers: d.workers, ThreadsPerWorker: 1},
		Termination: ga.Termination{
			MinGenerations: d.generations,
			MaxGenerations: d.generations,
		},
	}
}

// queryStream yields the score_proteome inputs: distinct random-body
// sequences with planted motifs, cycling the five difficulty classes so
// every run mixes cheap and expensive queries in fixed proportion.
type queryStream struct {
	pr  *yeastgen.Proteome
	rng *rand.Rand
	n   int
}

func newQueryStream(pr *yeastgen.Proteome, seed int64) *queryStream {
	return &queryStream{pr: pr, rng: rand.New(rand.NewSource(seed ^ 0x5c0fe))}
}

func (q *queryStream) next() seq.Sequence {
	d := yeastgen.Difficulty(q.n % int(yeastgen.NumDifficulties))
	q.n++
	return q.pr.DifficultySequence(q.rng, d, queryLen)
}

func allIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}
