package core

import (
	"errors"
	"flag"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/ga"
	"repro/internal/pipe"
	"repro/internal/ppigraph"
	"repro/internal/search"
)

// Spec is one design run, the paper's parameter set: target,
// non-targets, population, generations, GA rates and the strategy that
// spends them. Both front-ends take this one type. insips binds it to
// flags (BindFlags), and insipsd decodes it from a POST /v1/designs
// body: the JSON tags are the wire form. Validate checks it without a
// proteome; Resolve maps it onto one.
//
// A zero field means what the surface that decoded it says, and each
// surface settles that where it decodes. insips registers every flag
// with its CLIDefaults value, so an explicit 0 (-stall 0, -max-gens 0)
// reaches Resolve as 0, "off". insipsd fills every non-positive field
// from ServiceDefaults (WithDefaults). The strategy knobs are 0 in both
// profiles, meaning the package default of their strategy, and Validate
// rejects a non-zero one whose strategy is not chosen.
type Spec struct {
	Target     string   `json:"target"`
	NonTargets []string `json:"non_targets,omitempty"`
	// MaxNonTargets clips the non-target set when NonTargets is empty: it
	// is then the first MaxNonTargets other proteins of the proteome, the
	// paper's "all other proteins" recipe.
	MaxNonTargets int `json:"max_non_targets,omitempty"`

	Population     int     `json:"population,omitempty"`
	SeqLen         int     `json:"seq_len,omitempty"`
	PCrossover     float64 `json:"p_crossover,omitempty"`
	PMutate        float64 `json:"p_mutate,omitempty"`
	PCopy          float64 `json:"p_copy,omitempty"`
	PMutateAA      float64 `json:"p_mutate_aa,omitempty"`
	Seed           int64   `json:"seed,omitempty"`
	MinGenerations int     `json:"min_generations,omitempty"`
	StallGens      int     `json:"stall_generations,omitempty"`
	MaxGenerations int     `json:"max_generations,omitempty"`
	WarmStart      *bool   `json:"warm_start,omitempty"` // nil = true
	Workers        int     `json:"workers,omitempty"`    // evaluator workers
	Threads        int     `json:"threads,omitempty"`    // threads per worker
	// NoFitnessCache evaluates every candidate instead of memoizing
	// (ablation/debugging). insipsd only: insips has no flag for it.
	NoFitnessCache bool `json:"no_fitness_cache,omitempty"`
	// Strategy is "ga" (empty means ga), "beam" or "anneal" (package
	// search). The knobs below belong to one strategy each; 0 takes the
	// package default (beam: width 8, expand 6, elite-extra = expand, -1
	// for none; anneal: t0 0.02, cooling 0.995, tmin 1e-4).
	Strategy       string `json:"strategy,omitempty"`
	BeamWidth      int    `json:"beam_width,omitempty"`
	BeamExpand     int    `json:"beam_expand,omitempty"`
	BeamEliteExtra int    `json:"beam_elite_extra,omitempty"`
	// BeamDepth, when positive, replaces the generation bounds with an
	// exact cap (the tree's depth). insips only (-beam-depth).
	BeamDepth     int     `json:"-"`
	AnnealT0      float64 `json:"anneal_t0,omitempty"`
	AnnealCooling float64 `json:"anneal_cooling,omitempty"`
	// AnnealTMin floors the temperature schedule. insips only
	// (-anneal-tmin).
	AnnealTMin float64 `json:"-"`
}

// The two default profiles. insips runs batch campaigns; insipsd serves
// interactive jobs, modest next to the paper's production parameters.
var (
	CLIDefaults = Spec{
		MaxNonTargets: 25, Population: 200, SeqLen: 150, Seed: 1,
		PCrossover: 0.5, PMutate: 0.4, PCopy: 0.1, PMutateAA: 0.05,
		MinGenerations: 100, StallGens: 50, MaxGenerations: 400,
		WarmStart: boolPtr(true), Workers: 2, Threads: 2,
		Strategy: search.StrategyGA,
	}
	ServiceDefaults = Spec{
		MaxNonTargets: 25, Population: 100, SeqLen: 120, Seed: 1,
		PCrossover: 0.5, PMutate: 0.4, PCopy: 0.1, PMutateAA: 0.05,
		MinGenerations: 20, StallGens: 50, MaxGenerations: 100,
		WarmStart: boolPtr(true), Workers: 2, Threads: 2,
	}
)

// crossoverMargin keeps crossover cuts this far from either end, which
// sets the floor on SeqLen.
const crossoverMargin = 10

func boolPtr(b bool) *bool { return &b }

// WithDefaults returns s with every unset field taken from d: a
// non-positive size, rate or generation count, a zero Seed (a negative
// seed is a seed), a nil WarmStart. Strategy, the switches and the mode
// knobs are left alone: their zero already means something.
func (s Spec) WithDefaults(d Spec) Spec {
	fill := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	fillRate := func(v *float64, d float64) {
		if *v <= 0 {
			*v = d
		}
	}
	fill(&s.MaxNonTargets, d.MaxNonTargets)
	fill(&s.Population, d.Population)
	fill(&s.SeqLen, d.SeqLen)
	fillRate(&s.PCrossover, d.PCrossover)
	fillRate(&s.PMutate, d.PMutate)
	fillRate(&s.PCopy, d.PCopy)
	fillRate(&s.PMutateAA, d.PMutateAA)
	fill(&s.MinGenerations, d.MinGenerations)
	fill(&s.StallGens, d.StallGens)
	fill(&s.MaxGenerations, d.MaxGenerations)
	fill(&s.Workers, d.Workers)
	fill(&s.Threads, d.Threads)
	if s.Seed == 0 {
		s.Seed = d.Seed
	}
	if s.WarmStart == nil {
		s.WarmStart = d.WarmStart
	}
	return s
}

// Validate reports the first reason the spec cannot run, without a
// proteome: insips calls it before loading one. Both surfaces report the
// same message, which spells a knob with underscores; its flag has
// dashes instead (seq_len's is -len).
func (s Spec) Validate() error {
	if s.Target == "" {
		return errors.New("need target (protein name)")
	}
	if min := 2*crossoverMargin + 2; s.SeqLen < min {
		return fmt.Errorf("seq_len (-len) %d too short: need >= %d", s.SeqLen, min)
	}
	cfg := s.searchConfig()
	switch cfg.Name() {
	case search.StrategyGA, search.StrategyBeam, search.StrategyAnneal:
	default:
		return fmt.Errorf("strategy %q unknown: must be one of %v", s.Strategy, search.Strategies())
	}
	if cfg.Name() != search.StrategyBeam && (s.BeamWidth != 0 || s.BeamExpand != 0 || s.BeamEliteExtra != 0 || s.BeamDepth != 0) {
		return errors.New(`beam_width/beam_expand/beam_elite_extra/beam_depth require strategy "beam"`)
	}
	if cfg.Name() != search.StrategyAnneal && (s.AnnealT0 != 0 || s.AnnealCooling != 0 || s.AnnealTMin != 0) {
		return errors.New(`anneal_t0/anneal_cooling/anneal_tmin require strategy "anneal"`)
	}
	return cfg.Validate()
}

// searchConfig is the spec's search.Config. Every strategy's knobs are
// copied: Validate has made sure the other strategies' are zero.
func (s Spec) searchConfig() search.Config {
	return search.Config{
		Strategy: s.Strategy,
		Beam:     search.BeamConfig{Width: s.BeamWidth, Expand: s.BeamExpand, EliteExtra: s.BeamEliteExtra, Depth: s.BeamDepth},
		Anneal:   search.AnnealConfig{T0: s.AnnealT0, Cooling: s.AnnealCooling, TMin: s.AnnealTMin},
	}
}

// Run is a Spec resolved against a proteome: the protein IDs it names
// and the Designer options it sets. Each caller adds what is its own —
// logger, metrics, journal, hooks, a remote backend — to Options.
type Run struct {
	Target       string // the target's name
	TargetID     int
	NonTargetIDs []int
	Options      Options
}

// Resolve validates the spec and maps it onto the proteome of g: names
// to IDs, and the spec to core.Options. A positive BeamDepth replaces
// the termination rule with its exact cap.
func (s Spec) Resolve(g *ppigraph.Graph) (Run, error) {
	if err := s.Validate(); err != nil {
		return Run{}, err
	}
	r := Run{Target: s.Target}
	var ok bool
	if r.TargetID, ok = g.ID(s.Target); !ok {
		return Run{}, fmt.Errorf("target %q not in the proteome", s.Target)
	}
	for _, name := range s.NonTargets {
		id, ok := g.ID(strings.TrimSpace(name))
		if !ok {
			return Run{}, fmt.Errorf("non-target %q not in the proteome", name)
		}
		r.NonTargetIDs = append(r.NonTargetIDs, id)
	}
	for id := 0; len(s.NonTargets) == 0 && id < g.NumProteins() && len(r.NonTargetIDs) < s.MaxNonTargets; id++ {
		if id != r.TargetID {
			r.NonTargetIDs = append(r.NonTargetIDs, id)
		}
	}
	r.Options = Options{
		GA: ga.Params{
			PopulationSize:  s.Population,
			PCopy:           s.PCopy,
			PMutate:         s.PMutate,
			PCrossover:      s.PCrossover,
			PMutateAA:       s.PMutateAA,
			SeqLen:          s.SeqLen,
			CrossoverMargin: crossoverMargin,
			Seed:            s.Seed,
		},
		Search:              s.searchConfig(),
		Cluster:             cluster.Config{Workers: s.Workers, ThreadsPerWorker: s.Threads},
		Termination:         ga.Termination{MinGenerations: s.MinGenerations, StallGenerations: s.StallGens, MaxGenerations: s.MaxGenerations},
		WarmStart:           s.WarmStart == nil || *s.WarmStart,
		DisableFitnessCache: s.NoFitnessCache,
	}
	if s.BeamDepth > 0 {
		r.Options.Termination = ga.Termination{MaxGenerations: s.BeamDepth}
	}
	return r, nil
}

// Problem is the run's design problem over engine.
func (r Run) Problem(engine *pipe.Engine) Problem {
	return Problem{Engine: engine, TargetID: r.TargetID, NonTargetIDs: r.NonTargetIDs}
}

// BindFlags registers the spec's insips flags on fs, each defaulting to
// the field's current value: insips binds a copy of CLIDefaults. Every
// field but NoFitnessCache has a flag.
func (s *Spec) BindFlags(fs *flag.FlagSet) {
	fs.StringVar(&s.Target, "target", s.Target, "target protein name")
	fs.Var(nameList{&s.NonTargets}, "non-targets", "comma-separated non-target `names` (default: all other proteins)")
	fs.IntVar(&s.MaxNonTargets, "max-non-targets", s.MaxNonTargets, "cap on the non-target set size")
	fs.IntVar(&s.Population, "pop", s.Population, "population size (paper: 1000)")
	fs.IntVar(&s.SeqLen, "len", s.SeqLen, "designed sequence length")
	fs.Float64Var(&s.PCrossover, "p-crossover", s.PCrossover, "crossover probability")
	fs.Float64Var(&s.PMutate, "p-mutate", s.PMutate, "mutation probability")
	fs.Float64Var(&s.PCopy, "p-copy", s.PCopy, "copy probability")
	fs.Float64Var(&s.PMutateAA, "p-mutate-aa", s.PMutateAA, "per-residue mutation probability")
	fs.Int64Var(&s.Seed, "seed", s.Seed, "random seed")
	fs.IntVar(&s.MinGenerations, "min-gens", s.MinGenerations, "minimum generations (paper: 250)")
	fs.IntVar(&s.StallGens, "stall", s.StallGens, "stop after this many generations without a new best (0 = never)")
	fs.IntVar(&s.MaxGenerations, "max-gens", s.MaxGenerations, "hard generation cap (0 = none)")
	fs.Var(optBool{&s.WarmStart}, "warm-start", "seed the population with natural-fragment chimeras")
	fs.IntVar(&s.Workers, "workers", s.Workers, "worker processes")
	fs.IntVar(&s.Threads, "threads", s.Threads, "threads per worker")
	fs.StringVar(&s.Strategy, "strategy", s.Strategy, "search strategy: ga, beam or anneal (docs/DESIGN.md §2.3f)")
	fs.IntVar(&s.BeamWidth, "beam-width", s.BeamWidth, "beam width: survivors kept per generation (-strategy beam; 0 = 8)")
	fs.IntVar(&s.BeamExpand, "beam-expand", s.BeamExpand, "children per beam node, including its survival copy (-strategy beam; 0 = 6)")
	fs.IntVar(&s.BeamEliteExtra, "beam-elite-extra", s.BeamEliteExtra, "extra mutant children for the top-ranked node (-strategy beam; 0 = -beam-expand, -1 = none)")
	fs.IntVar(&s.BeamDepth, "beam-depth", s.BeamDepth, "tree depth: overrides the generation bounds with an exact cap (-strategy beam; 0 = use them)")
	fs.Float64Var(&s.AnnealT0, "anneal-t0", s.AnnealT0, "initial temperature of the geometric schedule (-strategy anneal; 0 = 0.02)")
	fs.Float64Var(&s.AnnealCooling, "anneal-cooling", s.AnnealCooling, "geometric cooling factor per generation, in (0,1) (-strategy anneal; 0 = 0.995)")
	fs.Float64Var(&s.AnnealTMin, "anneal-tmin", s.AnnealTMin, "temperature floor of the schedule (-strategy anneal; 0 = 1e-4)")
}

// nameList binds a []string field to a comma-separated flag.
type nameList struct{ p *[]string }

func (l nameList) String() string {
	if l.p == nil {
		return ""
	}
	return strings.Join(*l.p, ",")
}

func (l nameList) Set(v string) error {
	*l.p = nil
	if v != "" {
		*l.p = strings.Split(v, ",")
	}
	return nil
}

// optBool binds a *bool field to a boolean flag.
type optBool struct{ p **bool }

func (b optBool) IsBoolFlag() bool { return true }

func (b optBool) String() string {
	if b.p == nil || *b.p == nil {
		return ""
	}
	return strconv.FormatBool(**b.p)
}

func (b optBool) Set(v string) error {
	x, err := strconv.ParseBool(v)
	if err != nil {
		return err
	}
	*b.p = &x
	return nil
}
