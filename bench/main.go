// Command bench is the repository's end-to-end benchmark: four
// workloads over the in-process, netcluster and insipsd paths, each
// measured untraced (end-to-end metrics) and traced (per-layer metrics
// and spans). See README.md; BENCHMARK.json at the repository root is
// its declaration.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash bench/run.sh -seed 1                      # every workload, both passes
//	bash bench/run.sh -workload design_local -seed 1 -seconds 22 -trace 0
//	bash bench/run.sh -repeat 10                   # spread of every end-to-end metric
//	bash bench/run.sh -smoke                       # seconds, not minutes
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

//go:embed golden.json
var goldenJSON []byte

// golden pins the design digests of one seed: digest r is run r of the
// shape, the same on the in-process and netcluster paths.
type golden struct {
	Seed   int64               `json:"seed"`
	Shapes map[string][]string `json:"shapes"`
}

// goldenRuns is how many leading runs -update-golden pins per shape.
const goldenRuns = 8

func shapeKey(smoke bool) string {
	if smoke {
		return "smoke"
	}
	return "d200"
}

// checkGolden fails the pass for every pinned digest it disagrees with.
func checkGolden(o *outcome, seed int64, smoke bool) error {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	if seed != g.Seed {
		return nil
	}
	for r, want := range g.Shapes[shapeKey(smoke)] {
		if r < len(o.Digests) && o.Digests[r] != want {
			o.fail("run %d: digest %s, golden.json pins %s", r, o.Digests[r], want)
		}
	}
	return nil
}

func updateGolden(path string, o *outcome, seed int64, smoke bool) error {
	g := golden{Shapes: map[string][]string{}}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &g); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if g.Seed != seed {
		g = golden{Seed: seed, Shapes: map[string][]string{}}
	}
	d := o.Digests
	if len(d) > goldenRuns {
		d = d[:goldenRuns]
	}
	g.Shapes[shapeKey(smoke)] = d
	raw, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        int
	smoke        bool
	repeat       int
	updateGolden bool
	outDir       string
	outcomeFile  string
}

func main() {
	var opt options
	list := flag.Bool("list", false, "list workloads and metrics, then exit")
	benchJSON := flag.Bool("benchmark-json", false, "print BENCHMARK.json as generated from spec.go, then exit")
	flag.StringVar(&opt.workload, "workload", "", "run one pass of this workload and print its result as one JSON line (default: every workload, both passes)")
	flag.Int64Var(&opt.seed, "seed", 1, "inputs are generated from this seed")
	flag.Float64Var(&opt.seconds, "seconds", runSeconds, "measured seconds per pass")
	flag.IntVar(&opt.trace, "trace", 0, "with -workload: 0 = untraced pass (end-to-end metrics), 1 = traced pass (per-layer metrics)")
	flag.BoolVar(&opt.smoke, "smoke", false, "tiny fixed operation counts instead of -seconds")
	flag.IntVar(&opt.repeat, "repeat", 0, "run the untraced set N times on seeds seed..seed+N-1 and check every end-to-end metric's spread against its bound")
	flag.BoolVar(&opt.updateGolden, "update-golden", false, "rewrite golden.json from this run's design digests")
	flag.StringVar(&opt.outDir, "out", filepath.Join("bench", "out"), "directory for results, traces and scratch files")
	flag.StringVar(&opt.outcomeFile, "outcome", "", "with -workload: also write the full outcome (sample counts, digests, failures) to this file")
	flag.Parse()

	var err error
	switch {
	case *list:
		printList()
	case *benchJSON:
		var raw []byte
		if raw, err = benchmarkJSON(); err == nil {
			_, err = os.Stdout.Write(raw)
		}
	case opt.workload != "":
		err = runOne(opt)
	case opt.repeat > 0:
		err = runRepeat(opt)
	default:
		err = runAll(opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne is the contract entry point: one pass of one workload, its
// result the last line of standard output.
func runOne(opt options) error {
	spec, ok := workloadByName(opt.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (see -list)", opt.workload)
	}
	if opt.trace != 0 && opt.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if !(opt.seconds > 0) {
		return fmt.Errorf("-seconds must be positive")
	}
	traced := opt.trace == 1
	o, spans, err := runPass(spec, opt.seed, time.Duration(opt.seconds*float64(time.Second)), traced, opt.smoke, opt.outDir)
	if err != nil {
		return err
	}
	if len(o.Digests) > 0 {
		if opt.updateGolden {
			if err := updateGolden(filepath.Join(filepath.Dir(filepath.Clean(opt.outDir)), "golden.json"), o, opt.seed, opt.smoke); err != nil {
				return err
			}
		} else if err := checkGolden(o, opt.seed, opt.smoke); err != nil {
			return err
		}
	}
	if traced {
		if err := writeTrace(filepath.Join(opt.outDir, "trace-"+spec.Name+".json"), spec.Name, opt.seed, spans); err != nil {
			return err
		}
	}
	if opt.outcomeFile != "" {
		raw, err := json.Marshal(o)
		if err != nil {
			return err
		}
		if err := os.WriteFile(opt.outcomeFile, raw, 0o644); err != nil {
			return err
		}
	}
	for _, f := range o.Failures {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", f)
	}
	line, err := contractLine(o, traced)
	if err != nil {
		return err
	}
	fmt.Println(line)
	if o.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", spec.Name, o.Failed, o.Attempted)
	}
	return nil
}

// contractLine renders the one-line result the benchmark contract asks
// for: exactly the declared metrics of the pass, value and unit only.
func contractLine(o *outcome, traced bool) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: o.Failed == 0, Attempted: o.Attempted, Failed: o.Failed, Metrics: map[string]mv{}}
	for _, m := range specs {
		v, ok := o.Metrics[m.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", m.Name)
		}
		out.Metrics[m.Name] = mv{v.Value, v.Unit}
	}
	raw, err := json.Marshal(out)
	return string(raw), err
}
