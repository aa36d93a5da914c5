package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/stats"
)

// statsSeries builds a one-point-or-two series for helper tests.
func statsSeries(name string, x, y float64) stats.Series {
	s := stats.Series{Name: name}
	s.Add(x, y)
	return s
}

// One shared quick Env for the whole package: engine construction and
// design runs are cached inside it.
var (
	envOnce sync.Once
	testEnv *Env
	testBuf *bytes.Buffer
	dataDir string
)

func quickEnv(t testing.TB) *Env {
	envOnce.Do(func() {
		testBuf = &bytes.Buffer{}
		dir, err := os.MkdirTemp("", "experiments")
		if err != nil {
			panic(err)
		}
		dataDir = dir
		testEnv = NewEnv(true, testBuf, dir)
	})
	return testEnv
}

func TestRegistryComplete(t *testing.T) {
	e := quickEnv(t)
	reg := e.Registry()
	if len(reg) != 16 {
		t.Errorf("registry has %d exhibits, want 16 (5 tables + 9 figures + ablations + strategies)", len(reg))
	}
	for _, name := range Names() {
		if _, ok := reg[name]; !ok {
			t.Errorf("Names() lists %q but registry lacks it", name)
		}
	}
	// Names() is the paper's exhibit list; the registry adds the extra
	// ablations and strategies drivers.
	if len(Names())+2 != len(reg) {
		t.Errorf("Names() has %d entries, registry %d", len(Names()), len(reg))
	}
}

func TestRunUnknown(t *testing.T) {
	e := quickEnv(t)
	if err := e.Run("fig99"); err == nil {
		t.Error("unknown exhibit accepted")
	}
}

func TestFig2(t *testing.T) {
	e := quickEnv(t)
	if err := e.Fig2(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(testBuf.String(), "Figure 2") {
		t.Error("no Figure 2 output")
	}
	if _, err := os.Stat(filepath.Join(dataDir, "fig2_heatmap.dat")); err != nil {
		t.Error("fig2 data file missing")
	}
}

func TestFig3And4(t *testing.T) {
	e := quickEnv(t)
	if err := e.Fig3(); err != nil {
		t.Fatal(err)
	}
	if err := e.Fig4(); err != nil {
		t.Fatal(err)
	}
	out := testBuf.String()
	for _, want := range []string{"YPL108W", "YHR214C-B", "speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig3/4 output missing %q", want)
		}
	}
}

func TestFig5And6(t *testing.T) {
	e := quickEnv(t)
	if err := e.Fig5(); err != nil {
		t.Fatal(err)
	}
	if err := e.Fig6(); err != nil {
		t.Fatal(err)
	}
	out := testBuf.String()
	if !strings.Contains(out, "gen250") {
		t.Error("fig5/6 output missing population curves")
	}
}

func TestTable1(t *testing.T) {
	e := quickEnv(t)
	if err := e.Table1(); err != nil {
		t.Fatal(err)
	}
	out := testBuf.String()
	if !strings.Contains(out, "YAL054C") || !strings.Contains(out, "Set 5") {
		t.Error("table 1 output incomplete")
	}
}

func TestFig7AndWetlab(t *testing.T) {
	if testing.Short() {
		t.Skip("design runs skipped in -short mode")
	}
	e := quickEnv(t)
	if err := e.Fig7(); err != nil {
		t.Fatal(err)
	}
	if err := e.Table4(); err != nil {
		t.Fatal(err)
	}
	if err := e.Fig8(); err != nil {
		t.Fatal(err)
	}
	if err := e.Table5(); err != nil {
		t.Fatal(err)
	}
	if err := e.Fig9(); err != nil {
		t.Fatal(err)
	}
	if err := e.Fig10(); err != nil {
		t.Fatal(err)
	}
	out := testBuf.String()
	for _, want := range []string{"acceptance threshold", "anti-YBL051C", "WT+InSiPS", "spot test"} {
		if !strings.Contains(out, want) {
			t.Errorf("wet-lab exhibits missing %q", want)
		}
	}
	// Data files for every saved exhibit.
	for _, f := range []string{"fig7_learning_curves.dat", "table4_cycloheximide.txt", "table5_uv.txt", "fig10_spot_test.txt"} {
		if _, err := os.Stat(filepath.Join(dataDir, f)); err != nil {
			t.Errorf("data file %s missing", f)
		}
	}
}

func TestPaperParamSetsMatchPaper(t *testing.T) {
	sets := PaperParamSets()
	if len(sets) != 5 {
		t.Fatalf("%d parameter sets", len(sets))
	}
	// Every set plus p_copy=0.10 must sum to 1 (the paper's constraint).
	for _, s := range sets {
		sum := 0.10 + s.PCrossover + s.PMutate
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: probabilities sum to %f", s.Name, sum)
		}
	}
	if sets[3].PCrossover != 0.75 || sets[4].PMutate != 0.75 {
		t.Error("extreme sets do not match the paper")
	}
}

func TestDecimate(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	d := decimate(xs, 10)
	if len(d) != 10 || d[0] != 0 || d[9] != 99 {
		t.Errorf("decimate = %v", d)
	}
	short := []float64{1, 2}
	if len(decimate(short, 10)) != 2 {
		t.Error("short input should pass through")
	}
}

func TestTableTargetsStable(t *testing.T) {
	e := quickEnv(t)
	if _, _, err := e.Setup(); err != nil {
		t.Fatal(err)
	}
	a := e.tableTargets()
	b := e.tableTargets()
	if len(a) != 3 {
		t.Fatalf("%d table targets", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Error("tableTargets not deterministic")
		}
	}
}

func TestSpreadHelper(t *testing.T) {
	if got := spread([]float64{0.3, 0.1, 0.5}); got != 0.4 {
		t.Errorf("spread = %f", got)
	}
	if spread(nil) != 0 {
		t.Error("empty spread")
	}
}

func TestIntsToStrings(t *testing.T) {
	got := intsToStrings([]int{1, 64, 1024})
	if len(got) != 3 || got[0] != "1" || got[2] != "1024" {
		t.Errorf("intsToStrings = %v", got)
	}
}

func TestAppendSeries(t *testing.T) {
	s1 := statsSeries("a", 1, 10)
	s2 := statsSeries("b", 2, 20)
	buf := appendSeries(nil, s1)
	buf = appendSeries(buf, s2)
	out := string(buf)
	if !strings.Contains(out, "# a") || !strings.Contains(out, "# b") {
		t.Errorf("missing headers: %q", out)
	}
	if !strings.Contains(out, "2\t20") {
		t.Errorf("missing point: %q", out)
	}
}

func TestAblations(t *testing.T) {
	e := quickEnv(t)
	if err := e.Ablations(); err != nil {
		t.Fatal(err)
	}
	out := testBuf.String()
	if !strings.Contains(out, "PAM120 + filter (paper)") || !strings.Contains(out, "margin") {
		t.Error("ablations output incomplete")
	}
}

func TestStrategies(t *testing.T) {
	if testing.Short() {
		t.Skip("design runs skipped in -short mode")
	}
	e := quickEnv(t)
	if err := e.Strategies(); err != nil {
		t.Fatal(err)
	}
	out := testBuf.String()
	for _, want := range []string{"head-to-head", "easy", "hard", "beam", "anneal"} {
		if !strings.Contains(out, want) {
			t.Errorf("strategies output missing %q", want)
		}
	}
	data, err := os.ReadFile(filepath.Join(dataDir, "strategies_head_to_head.dat"))
	if err != nil {
		t.Fatal("strategies data file missing")
	}
	if !strings.Contains(string(data), "ga") || !strings.Contains(string(data), "anneal") {
		t.Errorf("dat file missing strategy rows: %q", data)
	}
}

func TestEnvNonTargets(t *testing.T) {
	e := quickEnv(t)
	if _, _, err := e.Setup(); err != nil {
		t.Fatal(err)
	}
	nts := e.nonTargetsFor(0, 5)
	if len(nts) > 5 {
		t.Errorf("cap not applied: %d", len(nts))
	}
	for _, id := range nts {
		if id == 0 {
			t.Error("target included in non-targets")
		}
	}
}
