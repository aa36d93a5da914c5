package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func printList() {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Printf("  %-18s op = %s; tail = p%.0f\n      %s\n", w.Name, w.Op, w.Tail*100, w.Why)
	}
	fmt.Println("end-to-end metrics (untraced pass, every workload):")
	for _, m := range endToEnd {
		fmt.Printf("  %-12s %-5s %-6s bound %2.0f%%  %s\n", m.Name, m.Unit, m.Better, m.Bound*100, m.What)
	}
	fmt.Println("per-layer metrics (traced pass; 0 where the workload does not exercise the layer):")
	for _, m := range perLayer {
		fmt.Printf("  %-36s %-6s %-6s moves: %s\n", m.Name, m.Unit, m.Better, m.Moves)
	}
}

// environment is recorded with every result file.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	TmpFS      string `json:"tmp_fs"`
	Commit     string `json:"commit"`
	When       string `json:"when"`
}

func currentEnvironment(outDir string) environment {
	env := environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		TmpFS:      fsType(outDir),
		Commit:     "unknown",
		When:       time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// fsType names the filesystem under dir (where stores, journals and
// checkpoints are written and fsynced).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// passResult is one child process's pass.
type passResult struct {
	outcome
	WallS float64 `json:"wall_s"`
}

// runChild runs one pass of one workload in a fresh process (so peak
// RSS, heap state and caches belong to that workload alone).
func runChild(opt options, workload string, seed int64, trace int) (*passResult, error) {
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return nil, err
	}
	file := filepath.Join(opt.outDir, fmt.Sprintf("outcome-%s-%d.json", workload, trace))
	defer os.Remove(file)
	args := []string{
		"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(opt.seconds),
		"-trace", fmt.Sprint(trace), "-out", opt.outDir, "-outcome", file,
	}
	if opt.smoke {
		args = append(args, "-smoke")
	}
	if opt.updateGolden {
		args = append(args, "-update-golden")
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	_, runErr := cmd.Output()
	res := &passResult{WallS: time.Since(t0).Seconds()}
	raw, err := os.ReadFile(file)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s (trace %d): %w", workload, trace, runErr)
		}
		return nil, err
	}
	if err := json.Unmarshal(raw, &res.outcome); err != nil {
		return nil, err
	}
	return res, nil
}

// printMetrics prints the pass's metrics by name. Per-layer metrics of
// layers the workload does not exercise are 0 and are counted, not
// listed.
func printMetrics(specs []metricSpec, o *outcome, skipZero bool) {
	zero := 0
	defer func() {
		if zero > 0 {
			fmt.Printf("    (%d metrics of layers this workload does not exercise are 0)\n", zero)
		}
	}()
	for _, m := range specs {
		v := o.Metrics[m.Name]
		if skipZero && v.Value == 0 && v.N == 0 {
			zero++
			continue
		}
		n := ""
		if v.N > 0 {
			n = fmt.Sprintf("n=%d", v.N)
		}
		if wall, ok := o.Wall[m.Name]; ok {
			n += fmt.Sprintf("  (reference time; wall clock %.4f)", wall)
		}
		fmt.Printf("    %-38s %14.4f %-6s %s\n", m.Name, v.Value, v.Unit, n)
	}
}

// runAll is the one command: every workload, untraced then traced, each
// pass in its own process; every metric printed by name with its unit;
// results.json and one trace file per workload written under -out.
func runAll(opt options) error {
	type workloadResult struct {
		Untraced *passResult `json:"untraced"`
		Traced   *passResult `json:"traced"`
	}
	results := struct {
		Env       environment                `json:"environment"`
		Seed      int64                      `json:"seed"`
		Seconds   float64                    `json:"seconds"`
		Smoke     bool                       `json:"smoke,omitempty"`
		Workloads map[string]*workloadResult `json:"workloads"`
	}{Seed: opt.seed, Seconds: opt.seconds, Smoke: opt.smoke, Workloads: map[string]*workloadResult{}}
	failed, attempted := 0, 0
	for _, w := range workloads {
		wr := &workloadResult{}
		results.Workloads[w.Name] = wr
		for trace := 0; trace <= 1; trace++ {
			res, err := runChild(opt, w.Name, opt.seed, trace)
			if err != nil {
				return err
			}
			failed += res.Failed
			attempted += res.Attempted
			if trace == 0 {
				wr.Untraced = res
				fmt.Printf("%s  (op = %s)\n  end to end, untraced: %d operations, %d failed, pass took %.1f s\n", w.Name, w.Op, res.Attempted, res.Failed, res.WallS)
				printMetrics(endToEnd, &res.outcome, false)
				fmt.Printf("    %-38s %14.6f %-6s n=%d\n", "failed_frac", ratio(float64(res.Failed), float64(res.Attempted)), "ratio", res.Attempted)
			} else {
				wr.Traced = res
				fmt.Printf("  per layer, traced: %d operations, %d failed, pass took %.1f s, spans in %s\n", res.Attempted, res.Failed, res.WallS,
					filepath.Join(opt.outDir, "trace-"+w.Name+".json"))
				printMetrics(perLayer, &res.outcome, true)
			}
		}
	}
	// Same problem, same bits on both design paths, run for run.
	loc, net := results.Workloads["design_local"].Untraced.Digests, results.Workloads["design_netcluster"].Untraced.Digests
	for r := 0; r < len(loc) && r < len(net); r++ {
		attempted++
		if loc[r] != net[r] {
			failed++
			fmt.Printf("FAILED: run %d digest %s in process, %s over netcluster\n", r, loc[r], net[r])
		}
	}
	results.Env = currentEnvironment(opt.outDir)
	raw, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(opt.outDir, "results.json")
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("failed_frac %.6f (%d of %d operations); results in %s\n", ratio(float64(failed), float64(attempted)), failed, attempted, path)
	if failed > 0 {
		return fmt.Errorf("%d of %d operations failed", failed, attempted)
	}
	return nil
}

// runRepeat is the self-check the benchmark contract describes: the
// untraced set N times in fresh processes on N seeds, then for every
// end-to-end metric of every workload the quartile spread as a share of
// the median, which must stay within the metric's own bound.
func runRepeat(opt options) error {
	type row struct {
		Workload string    `json:"workload"`
		Metric   string    `json:"metric"`
		Values   []float64 `json:"values"`
		Q1       float64   `json:"q1"`
		Median   float64   `json:"median"`
		Q3       float64   `json:"q3"`
		Spread   float64   `json:"spread"`
		MaxDev   float64   `json:"max_dev"` // largest |value - median| / median
		Bound    float64   `json:"bound"`
	}
	var rows []row
	over, failed := 0, 0
	for _, w := range workloads {
		values := map[string][]float64{}
		for i := 0; i < opt.repeat; i++ {
			res, err := runChild(opt, w.Name, opt.seed+int64(i), 0)
			if err != nil {
				return err
			}
			failed += res.Failed
			for _, m := range endToEnd {
				values[m.Name] = append(values[m.Name], res.Metrics[m.Name].Value)
			}
		}
		fmt.Printf("%s, %d runs:\n", w.Name, opt.repeat)
		for _, m := range endToEnd {
			r := row{Workload: w.Name, Metric: m.Name, Values: values[m.Name], Bound: m.Bound}
			r.Q1, r.Median, r.Q3, r.Spread = quartileSpread(r.Values)
			for _, v := range r.Values {
				if d := ratio(v-r.Median, r.Median); d > r.MaxDev || -d > r.MaxDev {
					r.MaxDev = max(d, -d)
				}
			}
			verdict := "ok"
			// The contract exempts setup_s from the spread test (only its
			// median may not drift), so it is reported but not counted.
			if r.Spread > r.Bound && m.Name != "setup_s" {
				verdict = "OVER BOUND"
				over++
			}
			fmt.Printf("  %-12s median %12.4f %-5s q1 %12.4f q3 %12.4f spread %5.1f%% max dev %5.1f%% bound %2.0f%%  %s\n",
				m.Name, r.Median, m.Unit, r.Q1, r.Q3, r.Spread*100, r.MaxDev*100, r.Bound*100, verdict)
			rows = append(rows, r)
		}
	}
	raw, err := json.MarshalIndent(struct {
		Env  environment `json:"environment"`
		Rows []row       `json:"rows"`
	}{currentEnvironment(opt.outDir), rows}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(opt.outDir, "repeat.json"), append(raw, '\n'), 0o644); err != nil {
		return err
	}
	switch {
	case failed > 0:
		return fmt.Errorf("%d operations failed", failed)
	case over > 0:
		return fmt.Errorf("%d end-to-end metrics spread wider than their bound", over)
	}
	return nil
}
