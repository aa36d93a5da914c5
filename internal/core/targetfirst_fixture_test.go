package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/island"
	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/yeastgen"
)

// The fixtures under testdata/targetfirst were recorded by the build
// before target-first evaluation, which scored every non-target of every
// candidate. Regenerate them (only ever from such a build) with
//
//	go test ./internal/core -run TargetFirstJournals -update-targetfirst
var updateTargetFirst = flag.Bool("update-targetfirst", false, "rewrite testdata/targetfirst from this build")

var (
	p200Once sync.Once
	p200     s40Problem
)

// s40Problem is the benchmark's service job: the P200 proteome (seed 1),
// its first wet-lab target and the first five other members of the
// target's cellular component as non-targets.
type s40Problem struct {
	pr         *yeastgen.Proteome
	eng        *pipe.Engine
	target     int
	nonTargets []int
}

func s40Fixture(t testing.TB) s40Problem {
	p200Once.Do(func() {
		params := yeastgen.DefaultParams()
		params.NumProteins = 200
		params.Seed = 1
		pr, err := yeastgen.Generate(params)
		if err != nil {
			panic(err)
		}
		eng, err := pipe.New(pr.Proteins, pr.Graph, pipe.Config{}, 0)
		if err != nil {
			panic(err)
		}
		p := s40Problem{pr: pr, eng: eng, target: pr.WetlabTargetIDs()[0]}
		for _, id := range pr.ComponentMembers(pr.Component(p.target)) {
			if id != p.target && len(p.nonTargets) < 5 {
				p.nonTargets = append(p.nonTargets, id)
			}
		}
		p200 = p
	})
	if len(p200.nonTargets) != 5 {
		t.Fatalf("S40 fixture has %d non-targets, want 5", len(p200.nonTargets))
	}
	return p200
}

func (p s40Problem) problem() core.Problem {
	return core.Problem{Engine: p.eng, TargetID: p.target, NonTargetIDs: p.nonTargets}
}

// s40Options is one S40 job: population 40, length 60, ten generations,
// warm start, one worker of one thread.
func s40Options(seed int64, cache bool) core.Options {
	gp := ga.DefaultParams()
	gp.PopulationSize = 40
	gp.SeqLen = 60
	gp.Seed = seed
	return core.Options{
		GA:                  gp,
		WarmStart:           true,
		Cluster:             cluster.Config{Workers: 1, ThreadsPerWorker: 1},
		Termination:         ga.Termination{MinGenerations: 10, MaxGenerations: 10},
		DisableFitnessCache: !cache,
	}
}

// Seeds of S40 jobs: every candidate of the dead run scores 0 against the
// target in all ten generations (its best's non-target figures are not);
// the live run's best binds the target from generation 1.
const (
	deadSeed = 1_000_001
	liveSeed = 1_100_001
)

// Journal fields that measure time, and counters of the engine every
// island of a ring shares, vary from run to run.
var (
	timingFields = regexp.MustCompile(`"(t_ms|eval_ms|gen_ms)":[-0-9.e+]+`)
	engineFields = regexp.MustCompile(`"(wincache_hits|wincache_misses|delta_queries)":[0-9]+,?`)
)

// runRecord is what a fixture pins of one run: every journal line with
// its timing fields zeroed, and the final checkpoint as JSON.
type runRecord struct {
	Journal    []string
	Checkpoint string
}

func readRun(t *testing.T, dir string, shared bool) runRecord {
	t.Helper()
	raw, err := os.ReadFile(obs.JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	var rec runRecord
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		line = timingFields.ReplaceAll(line, []byte(`"$1":0`))
		if shared {
			line = engineFields.ReplaceAll(line, nil)
		}
		rec.Journal = append(rec.Journal, string(line))
	}
	cp, err := obs.LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw, err = json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	rec.Checkpoint = string(raw)
	return rec
}

func openJournal(t *testing.T, dir string) *obs.RunJournal {
	t.Helper()
	j, err := obs.OpenJournal(dir, obs.JournalOptions{CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// designRun runs one journaled Designer and returns its record.
func designRun(t *testing.T, problem core.Problem, opts core.Options) []runRecord {
	t.Helper()
	dir := t.TempDir()
	j := openJournal(t, dir)
	opts.Journal = j
	d, err := core.NewDesigner(problem, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return []runRecord{readRun(t, dir, false)}
}

// resumedRun cancels a run after four generations, resumes it from the
// checkpoint the cancellation wrote and returns the record of the
// continued journal.
func resumedRun(t *testing.T, problem core.Problem, opts core.Options) []runRecord {
	t.Helper()
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j := openJournal(t, dir)
	first := opts
	first.Journal = j
	gens := 0
	first.OnGeneration = func(core.CurvePoint) {
		if gens++; gens == 4 {
			cancel()
		}
	}
	d, err := core.NewDesigner(problem, first)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunContext(ctx); err != context.Canceled {
		t.Fatalf("interrupted run: %v, want context.Canceled", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	cp, err := obs.LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Generation != 4 || cp.BestFitness != 0 {
		t.Fatalf("checkpoint at generation %d with best fitness %g, want a zero generation 4", cp.Generation, cp.BestFitness)
	}
	j = openJournal(t, dir)
	opts.Journal = j
	d, err = core.NewDesigner(problem, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Resume(cp); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return []runRecord{readRun(t, dir, false)}
}

// ringRun runs a 3-island ring, one journal per island.
func ringRun(t *testing.T, problem core.Problem, opts core.Options) []runRecord {
	t.Helper()
	const islands = 3
	dirs := make([]string, islands)
	journals := make([]*obs.RunJournal, islands)
	for k := range dirs {
		dirs[k] = t.TempDir()
		journals[k] = openJournal(t, dirs[k])
	}
	if _, err := island.Run(context.Background(), problem, opts,
		island.Config{Islands: islands, SyncInterval: 2, Journals: journals}); err != nil {
		t.Fatal(err)
	}
	recs := make([]runRecord, islands)
	for k, j := range journals {
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		recs[k] = readRun(t, dirs[k], true)
	}
	return recs
}

// TestTargetFirstJournalsMatchFixtures runs single-target, co-target,
// resumed and 3-island S40 jobs, with and without the fitness cache, and
// requires every journal line (timing aside) and final checkpoint to be
// the ones recorded before target-first evaluation. The dead runs report
// a best whose target score is 0, so their curve points, journal lines
// and checkpoints carry the non-target figures of a candidate that was
// evaluated target-only.
func TestTargetFirstJournalsMatchFixtures(t *testing.T) {
	p := s40Fixture(t)
	coTarget := p.problem()
	coTarget.CoTargetIDs = []int{p.pr.WetlabTargetIDs()[1]}
	cases := []struct {
		name    string
		problem core.Problem
		seed    int64
		run     func(*testing.T, core.Problem, core.Options) []runRecord
	}{
		{"single-dead", p.problem(), deadSeed, designRun},
		{"single-live", p.problem(), liveSeed, designRun},
		{"cotarget-dead", coTarget, deadSeed, designRun},
		{"cotarget-live", coTarget, liveSeed, designRun},
		{"resumed-dead", p.problem(), deadSeed, resumedRun},
		{"ring-dead", p.problem(), deadSeed, ringRun},
	}
	for _, c := range cases {
		for _, cache := range []bool{true, false} {
			name := c.name + "-cache"
			if !cache {
				name = c.name + "-nocache"
			}
			t.Run(name, func(t *testing.T) {
				got := c.run(t, c.problem, s40Options(c.seed, cache))
				path := filepath.Join("testdata", "targetfirst", name+".json")
				if *updateTargetFirst {
					data, err := json.MarshalIndent(got, "", " ")
					if err != nil {
						t.Fatal(err)
					}
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				var want []runRecord
				if err := json.Unmarshal(data, &want); err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%d journals, fixture has %d", len(got), len(want))
				}
				for k := range want {
					g, w := got[k], want[k]
					if len(g.Journal) != len(w.Journal) {
						t.Fatalf("journal %d: %d lines, fixture has %d", k, len(g.Journal), len(w.Journal))
					}
					for i := range w.Journal {
						if g.Journal[i] != w.Journal[i] {
							t.Errorf("journal %d line %d:\ngot:     %s\nfixture: %s", k, i, g.Journal[i], w.Journal[i])
						}
					}
					if g.Checkpoint != w.Checkpoint {
						t.Errorf("journal %d: final checkpoint differs from the fixture:\ngot:     %s\nfixture: %s", k, g.Checkpoint, w.Checkpoint)
					}
				}
			})
		}
	}
}
