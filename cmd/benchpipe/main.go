// Command benchpipe maintains BENCH_PIPE.json, the committed record of
// the PIPE scoring-kernel benchmarks, and gates CI on kernel
// regressions.
//
// Modes:
//
//	benchpipe -update            run the benchmark suite and rewrite the
//	                             "after" medians in BENCH_PIPE.json
//	benchpipe -check             run the suite and fail if a relative gate
//	                             (Searcher seam vs direct GA loop in the
//	                             same iterations, a run
//	                             of adjacent windows vs a lone window,
//	                             the scoring kernel vs the frozen seed
//	                             kernel, a reach-gated batch build vs
//	                             an ungated one, a lazily seeded slot stream vs
//	                             math/rand's, pipe.New vs the per-protein
//	                             search of the similarity database, the
//	                             seed-table build whose passes roll the
//	                             keys vs one that reduces every k-mer)
//	                             exceeds its ratio within the
//	                             run, or if BENCH_PIPE.json holds an
//	                             "after" median for a benchmark the run
//	                             did not produce; every other median is
//	                             printed next to its committed "after"
//	                             number
//	benchpipe -check -input f    same, but parse an existing `go test
//	                             -bench` output file instead of running
//	                             (CI runs the suite once, then checks)
//
// No gate compares an absolute time across runs: a committed ns/op says
// nothing about another host, toolchain or hour. The "before" block holds
// the seed (map-kernel) medians and is never rewritten by this tool; it
// exists so the JSON file documents the speedup alongside the current
// numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

const (
	benchFile  = "BENCH_PIPE.json"
	benchRegex = "PIPEScore$|ScoreBatch$|WindowCache$|Fig3ThreadScaling|Fig7LearningCurve|QueryPreprocess|WindowRunSearch|PerProteinSearch$|EngineNew$|DeltaReach|BatchReach|BackendDispatch|ElasticDispatch|SearcherOverhead|Kernel$|SlotReseed|SeedTables$"
)

// benchPackages hold the suite: the root package, internal/pipe for
// BenchmarkKernel, which needs the frozen seed kernel of its test files,
// internal/ga for BenchmarkSlotReseed, which needs the unexported slot
// source, and internal/simindex for BenchmarkSeedTables, which needs
// the per-position seed-table build of its test files.
var benchPackages = []string{".", "./internal/pipe", "./internal/ga", "./internal/simindex"}

// relativeGates bound one benchmark's median by a multiple of another's
// from the same run, so the gate is immune to machine speed. The w
// adjacent windows a point mutation stales must cost at most 8 lone
// windows: searched together they share seed lookups and slide along
// diagonals (measured ~5x; one by one, ~18x). Reseeding the slot
// stream and drawing four numbers must cost at most 0.1 of the same on
// math/rand's source, whose Seed refills 607 words: the lazy source
// reads 0.007.
// pipe.New, which builds the seed index and an empty window table and
// searches nothing, must cost at most 0.1 of every protein of the
// proteome searched on its own, the search it leaves to first touch: it
// read about 0.062 under a bound of 0.3 until the seed keys rolled,
// and reads 0.043-0.065 since (10 runs on one 2-vCPU host). A target-first pool's preprocessing of children
// that cannot score against the target, searched in the target's reach
// set only, must cost at most 0.25 of the same children searched in
// full: it reads about 0.16.
var relativeGates = []struct {
	name, base string
	maxRatio   float64
}{
	{"BenchmarkWindowRunSearch/run20", "BenchmarkWindowRunSearch/single", 8},
	{"BenchmarkEngineNew", "BenchmarkPerProteinSearch", 0.1},
	{"BenchmarkDeltaReach/gated", "BenchmarkDeltaReach/full", 0.25},
	{"BenchmarkSlotReseed/lazy", "BenchmarkSlotReseed/stdlib", 0.1},
}

// metricGates bound the median of a ratio a benchmark reports itself
// (b.ReportMetric) from timings it takes in the same iterations, where
// two sub-benchmarks would run one block of repetitions after the other
// and gate host drift between the blocks. The GA driven through the
// search.Searcher seam must stay within 2% of the engine driven
// directly.
//
// On score_proteome-shaped pairs (200-residue queries of every
// difficulty class against every protein), Scorer.Score must cost at
// most 0.13 of the frozen seed kernel, the bound it had when the two
// were timed as separate blocks. On one 2-vCPU host the blocks read
// 0.086, the engine block alone drifting 41-64 us a call between
// repetitions; timed in one loop the ratio reads 0.057-0.074 per run
// (10 runs, median 0.070), because strided samples reach each pair cold
// and that costs the seed kernel more. The design ratio has read 1.4x
// higher on other hosts than on that one, and the bound keeps that
// headroom.
//
// On the calls a design run makes, Scorer.Score must cost at most 0.024
// of the frozen seed kernel, the bound it has had since mass was
// scattered only where the smoothing reads it. With each database
// entry's X index it reads 0.0242-0.0267 per run on a 2-vCPU host (10
// runs, median 0.0254), and the kernel that walked each X's graph
// neighbours on every call 0.0279-0.0321 (median 0.0310) alternated
// with it, so that host fails the bound on either kernel; another
// 2-vCPU host read 0.0254-0.0269 for the neighbour walk, and the host
// above 0.0171-0.0194 (median 0.0182). On the same candidates scored
// against every protein of the proteome, as the paper scores them, it
// must cost at most 0.021 of the seed kernel: it reads 0.0152-0.0171
// (median 0.0168; 0.0114-0.0128 on the host above), the neighbour walk
// 0.0227-0.0260 (median 0.0237). The batch build of a dead-heavy
// warm-start generation through the target's reach gate must cost at
// most 0.6 of the ungated build: it reads about 0.47. simindex.Build,
// whose count and fill passes roll the k-mer keys with one class lookup
// per residue, must cost at most 0.75 of the build that reduces every
// k-mer in each of its two passes: it reads 0.57-0.68 per run (10 runs
// on one 2-vCPU host), and the per-position build itself would read 1.
var metricGates = []struct {
	name, unit string
	max        float64
}{
	{"BenchmarkSearcherOverhead", "searcher/direct", 1.02},
	{"BenchmarkKernel/proteome", "engine/golden", 0.13},
	{"BenchmarkKernel/design", "engine/golden", 0.024},
	{"BenchmarkKernel/all-proteins", "engine/golden", 0.021},
	{"BenchmarkBatchReach", "gated/full", 0.6},
	{"BenchmarkSeedTables", "build/per-position", 0.75},
}

// Stat is the median of one benchmark's repetitions.
type Stat struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds what the benchmark reports with b.ReportMetric, by
	// unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Record pairs the seed-kernel medians with the current kernel's.
type Record struct {
	Before *Stat `json:"before,omitempty"`
	After  *Stat `json:"after,omitempty"`
}

// File is the BENCH_PIPE.json schema.
type File struct {
	Note       string            `json:"note"`
	Go         string            `json:"go"`
	Count      int               `json:"count"`
	Benchmarks map[string]Record `json:"benchmarks"`
}

// benchLine is a result line: name, iterations, then value-unit pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*\bns/op\b.*)$`)

func main() {
	var (
		update = flag.Bool("update", false, "run the suite and rewrite the 'after' medians")
		check  = flag.Bool("check", false, "fail when a same-run ratio gate is exceeded")
		input  = flag.String("input", "", "parse this `go test -bench` output instead of running")
		count  = flag.Int("count", 6, "benchmark repetitions when running the suite")
	)
	flag.Parse()
	if *update == *check {
		fatal("exactly one of -update or -check is required")
	}

	var out []byte
	if *input != "" {
		b, err := os.ReadFile(*input)
		if err != nil {
			fatal("read -input: %v", err)
		}
		out = b
	} else {
		fmt.Fprintf(os.Stderr, "benchpipe: running benchmark suite (count=%d)...\n", *count)
		args := append([]string{"test"}, benchPackages...)
		cmd := exec.Command("go", append(args, "-run", "^$",
			"-bench", benchRegex, "-benchmem", "-count", strconv.Itoa(*count))...)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			fatal("go test -bench: %v", err)
		}
		out = b
	}

	medians := parseMedians(string(out))
	if len(medians) == 0 {
		fatal("no benchmark lines parsed")
	}

	if *update {
		file := readFile()
		file.Go = runtime.Version()
		file.Count = *count
		if file.Note == "" {
			file.Note = "Medians over -count repetitions of the PIPE kernel benchmarks. " +
				"'before' is the seed map-based kernel, 'after' the CSR kernel; " +
				"regenerate 'after' with: go run ./cmd/benchpipe -update"
		}
		if file.Benchmarks == nil {
			file.Benchmarks = map[string]Record{}
		}
		for name, st := range medians {
			rec := file.Benchmarks[name]
			s := st
			rec.After = &s
			file.Benchmarks[name] = rec
		}
		writeFile(file)
		fmt.Printf("benchpipe: updated %s (%d benchmarks)\n", benchFile, len(medians))
		return
	}

	// -check: gate the same-run ratios, then print every median beside
	// its committed one for the reader.
	failed := false
	for _, rg := range relativeGates {
		got, ok := medians[rg.name]
		if !ok {
			fatal("benchmark output has no %s results", rg.name)
		}
		base, ok := medians[rg.base]
		if !ok {
			fatal("benchmark output has no %s results", rg.base)
		}
		ratio := got.NsPerOp / base.NsPerOp
		fmt.Printf("benchpipe: %s median %.0f ns/op vs %s %.0f ns/op (x%.3f)\n",
			rg.name, got.NsPerOp, rg.base, base.NsPerOp, ratio)
		if ratio > rg.maxRatio {
			fmt.Fprintf(os.Stderr, "benchpipe: %s is x%.3f of %s (at most x%.3f)\n",
				rg.name, ratio, rg.base, rg.maxRatio)
			failed = true
		}
	}
	for _, mg := range metricGates {
		got, ok := medians[mg.name].Metrics[mg.unit]
		if !ok {
			fatal("benchmark output has no %s %s results", mg.name, mg.unit)
		}
		fmt.Printf("benchpipe: %s median %.3f %s\n", mg.name, got, mg.unit)
		if got > mg.max {
			fmt.Fprintf(os.Stderr, "benchpipe: %s reads %.3f %s (at most %.3f)\n", mg.name, got, mg.unit, mg.max)
			failed = true
		}
	}
	file := readFile()
	for _, name := range sortedNames(medians) {
		if r, ok := file.Benchmarks[name]; ok && r.After != nil {
			fmt.Printf("benchpipe: %-40s %12.0f ns/op (committed %12.0f)\n", name, medians[name].NsPerOp, r.After.NsPerOp)
		}
	}
	// -update only adds and rewrites entries, so a deleted benchmark
	// would leave its number behind.
	for _, name := range sortedNames(file.Benchmarks) {
		if _, ok := medians[name]; !ok && file.Benchmarks[name].After != nil {
			fmt.Fprintf(os.Stderr, "benchpipe: %s has a committed \"after\" median but the run did not produce it\n", name)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("benchpipe: OK")
}

func parseMedians(out string) map[string]Stat {
	samples := map[string][]Stat{}
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var st Stat
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v := atof(fields[i])
			switch unit := fields[i+1]; unit {
			case "ns/op":
				st.NsPerOp = v
			case "B/op":
				st.BytesPerOp = v
			case "allocs/op":
				st.AllocsPerOp = v
			default:
				if st.Metrics == nil {
					st.Metrics = map[string]float64{}
				}
				st.Metrics[unit] = v
			}
		}
		samples[m[1]] = append(samples[m[1]], st)
	}
	medians := make(map[string]Stat, len(samples))
	for name, ss := range samples {
		st := Stat{
			NsPerOp:     median(ss, func(s Stat) float64 { return s.NsPerOp }),
			BytesPerOp:  median(ss, func(s Stat) float64 { return s.BytesPerOp }),
			AllocsPerOp: median(ss, func(s Stat) float64 { return s.AllocsPerOp }),
		}
		for unit := range ss[0].Metrics {
			if st.Metrics == nil {
				st.Metrics = map[string]float64{}
			}
			st.Metrics[unit] = median(ss, func(s Stat) float64 { return s.Metrics[unit] })
		}
		medians[name] = st
	}
	return medians
}

func median(ss []Stat, f func(Stat) float64) float64 {
	vs := make([]float64, len(ss))
	for i, s := range ss {
		vs[i] = f(s)
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func readFile() File {
	var f File
	b, err := os.ReadFile(benchFile)
	if err != nil {
		if os.IsNotExist(err) {
			return f
		}
		fatal("read %s: %v", benchFile, err)
	}
	if err := json.Unmarshal(b, &f); err != nil {
		fatal("parse %s: %v", benchFile, err)
	}
	return f
}

func writeFile(f File) {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fatal("marshal: %v", err)
	}
	if err := os.WriteFile(benchFile, append(b, '\n'), 0o644); err != nil {
		fatal("write %s: %v", benchFile, err)
	}
}

func atof(s string) float64 {
	if s == "" {
		return 0
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0
	}
	return v
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchpipe: "+format+"\n", args...)
	os.Exit(1)
}
