// Command benchpipe maintains BENCH_PIPE.json, the committed record of
// the PIPE scoring-kernel benchmarks, and gates CI on kernel
// regressions.
//
// Modes:
//
//	benchpipe -update            run the benchmark suite and rewrite the
//	                             "after" medians in BENCH_PIPE.json
//	benchpipe -check             run the suite and fail if the measured
//	                             BenchmarkPIPEScore median ns/op regresses
//	                             more than -tolerance vs the committed
//	                             "after" numbers, if a relative gate
//	                             (Searcher seam vs direct GA loop, a run
//	                             of adjacent windows vs a lone window,
//	                             the scoring kernel vs the frozen seed
//	                             kernel, a lazily seeded slot stream vs
//	                             math/rand's) exceeds its ratio within the
//	                             run, or if the toolchain's Go minor
//	                             version is not the recorded one
//	benchpipe -check -input f    same, but parse an existing `go test
//	                             -bench` output file instead of running
//	                             (CI runs the suite once, then checks)
//
// The "before" block holds the seed (map-kernel) medians and is never
// rewritten by this tool; it exists so the JSON file documents the
// speedup alongside the current numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/version"
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
	benchRegex = "PIPEScore$|ScoreBatch$|WindowCache$|Fig3ThreadScaling|Fig7LearningCurve|QueryPreprocess|WindowRunSearch|BackendDispatch|ElasticDispatch|SurrogatePredict|SurrogateTrain|SearcherOverhead|Kernel$|SlotReseed"
)

// benchPackages hold the suite: the root package, internal/pipe for
// BenchmarkKernel, which needs the frozen seed kernel of its test files,
// and internal/ga for BenchmarkSlotReseed, which needs the unexported
// slot source.
var benchPackages = []string{".", "./internal/pipe", "./internal/ga"}

// gateBenches are the benchmarks -check fails on: the per-pair scoring
// kernel and the batched generation path the GA actually drives.
var gateBenches = []string{"BenchmarkPIPEScore", "BenchmarkScoreBatch"}

// relativeGates bound one benchmark's median by a multiple of another's
// from the same run, so the gate is immune to machine speed. The GA
// driven through the search.Searcher seam must stay within 2% of the
// engine driven directly. The w adjacent windows a point mutation stales
// must cost at most 8 lone windows: searched together they share seed
// lookups and slide along diagonals (measured ~5x; one by one, ~18x).
// Scorer.Score must cost at most 0.13 of the frozen seed kernel on the
// same pairs: with evidence in bit-planes and the box filter storing at
// eligible columns only it reads 0.11, the uint16 evidence matrix and
// strip-then-gather filter it replaced 0.135. Reseeding the slot stream and
// drawing four numbers must cost at most 0.1 of the same on math/rand's
// source, whose Seed refills 607 words: the lazy source reads 0.007.
var relativeGates = []struct {
	name, base string
	maxRatio   float64
}{
	{"BenchmarkSearcherOverhead/searcher", "BenchmarkSearcherOverhead/direct", 1.02},
	{"BenchmarkWindowRunSearch/run20", "BenchmarkWindowRunSearch/single", 8},
	{"BenchmarkKernel/engine", "BenchmarkKernel/golden", 0.13},
	{"BenchmarkSlotReseed/lazy", "BenchmarkSlotReseed/stdlib", 0.1},
}

// Stat is the median of one benchmark's repetitions.
type Stat struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
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

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op)?(?:\s+([\d.]+) allocs/op)?`)

func main() {
	var (
		update    = flag.Bool("update", false, "run the suite and rewrite the 'after' medians")
		check     = flag.Bool("check", false, "fail on ns/op regression of "+strings.Join(gateBenches, ", "))
		input     = flag.String("input", "", "parse this `go test -bench` output instead of running")
		count     = flag.Int("count", 6, "benchmark repetitions when running the suite")
		tolerance = flag.Float64("tolerance", 0.10, "allowed fractional ns/op regression in -check mode")
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
	for _, gate := range gateBenches {
		if _, ok := medians[gate]; !ok {
			fatal("benchmark output has no %s results", gate)
		}
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

	// -check: compare each measured gate benchmark against the committed
	// "after" numbers — which mean nothing across toolchains, so a
	// different Go minor version fails before any number is compared.
	file := readFile()
	if got, want := version.Lang(runtime.Version()), version.Lang(file.Go); got != want {
		fatal("this toolchain is %s but %s was recorded on %s: absolute ns/op gates do not carry across Go minor versions; run the check on %s or regenerate the record with benchpipe -update",
			runtime.Version(), benchFile, file.Go, want)
	}
	failed := false
	for _, gate := range gateBenches {
		rec, ok := file.Benchmarks[gate]
		if !ok || rec.After == nil {
			fatal("%s has no committed 'after' record for %s; run benchpipe -update", benchFile, gate)
		}
		got := medians[gate].NsPerOp
		want := rec.After.NsPerOp
		ratio := got/want - 1
		fmt.Printf("benchpipe: %s median %.0f ns/op vs committed %.0f ns/op (%+.1f%%)\n",
			gate, got, want, 100*ratio)
		if ratio > *tolerance {
			fmt.Fprintf(os.Stderr, "benchpipe: %s regressed %.1f%% (tolerance %.0f%%)\n",
				gate, 100*ratio, 100**tolerance)
			failed = true
		}
	}
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
	for _, name := range sortedNames(medians) {
		if isGate(name) {
			continue
		}
		if r, ok := file.Benchmarks[name]; ok && r.After != nil {
			fmt.Printf("benchpipe: %-40s %12.0f ns/op (committed %12.0f)\n", name, medians[name].NsPerOp, r.After.NsPerOp)
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("benchpipe: OK")
}

func isGate(name string) bool {
	for _, g := range gateBenches {
		if g == name {
			return true
		}
	}
	return false
}

func parseMedians(out string) map[string]Stat {
	samples := map[string][]Stat{}
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		st := Stat{NsPerOp: atof(m[2]), BytesPerOp: atof(m[3]), AllocsPerOp: atof(m[4])}
		samples[m[1]] = append(samples[m[1]], st)
	}
	medians := make(map[string]Stat, len(samples))
	for name, ss := range samples {
		medians[name] = Stat{
			NsPerOp:     median(ss, func(s Stat) float64 { return s.NsPerOp }),
			BytesPerOp:  median(ss, func(s Stat) float64 { return s.BytesPerOp }),
			AllocsPerOp: median(ss, func(s Stat) float64 { return s.AllocsPerOp }),
		}
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

func sortedNames(m map[string]Stat) []string {
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
