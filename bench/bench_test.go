package main

import (
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"regexp"
	"testing"
	"time"
)

// A hand-built tree: root [0,100] with children a [10,40] and b [30,60]
// (overlapping: parallel workers), a grandchild under a [10,20], and a
// child c [90,120] that sticks out of the root.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Layer: rootLayer, StartNS: 0, EndNS: 100},
		{ID: 2, Name: "a", Layer: "x", Parent: 1, StartNS: 10, EndNS: 40},
		{ID: 3, Name: "b", Layer: "y", Parent: 1, StartNS: 30, EndNS: 60},
		{ID: 4, Name: "a1", Layer: "z", Parent: 2, StartNS: 10, EndNS: 20},
		{ID: 5, Name: "c", Layer: "y", Parent: 1, StartNS: 90, EndNS: 120},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - (50 + 10), // children cover [10,60] and [90,100]
		2: 30 - 10,
		3: 30,
		4: 10,
		5: 30,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	layers := layerSelfTimes(spans)
	if layers["y"] != 60 || layers["x"] != 20 || layers["z"] != 10 || layers[rootLayer] != 40 {
		t.Errorf("layer self times = %v", layers)
	}
	if got := unattributedFrac(spans); math.Abs(got-0.40) > 1e-12 {
		t.Errorf("unattributedFrac = %v, want 0.40", got)
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *tracer
	id := tr.start("x", "y", 1, 0)
	tr.end(id)
	tr.add("x", "y", 1, 0, time.Now(), time.Now())
	if id != 0 || tr.snapshot() != nil {
		t.Fatalf("nil tracer recorded something")
	}
}

// Twenty samples a second apart: the first ten on a host at reference
// speed, the last ten on one half as fast.
func TestHostClockFactor(t *testing.T) {
	t0 := time.Unix(1000, 0)
	h := &hostClock{}
	for i := 0; i < 20; i++ {
		cal := referenceCal
		if i >= 10 {
			cal = 2 * referenceCal
		}
		h.samples = append(h.samples, speedSample{at: t0.Add(time.Duration(i) * time.Second), cal: cal})
	}
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	for _, c := range []struct {
		from, to, want float64
	}{
		{0, 7, 1},     // eight samples inside, all fast
		{12, 19, 0.5}, // eight inside, all slow
		{3.4, 3.6, 1}, // none inside: widened to the eight around it
		{16.4, 16.6, 0.5},
		{-50, -40, 1},   // before the first sample: the first eight
		{100, 110, 0.5}, // after the last: the last eight
	} {
		if got := h.factor(at(c.from), at(c.to)); got != c.want {
			t.Errorf("factor over [%v, %v] s = %v, want %v", c.from, c.to, got, c.want)
		}
	}
	if got := (*hostClock)(nil).factor(t0, t0); got != 1 {
		t.Errorf("nil clock scales by %v, want 1", got)
	}
	if got := (&hostClock{}).factor(t0, t0); got != 1 {
		t.Errorf("clock without samples scales by %v, want 1", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // sorted 1..5
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Errorf("percentile of nothing should be 0")
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input in place")
	}
}

// "The highest percentile that has at least ten samples beyond it."
func TestSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{480, 0.90, 48}, {6000, 0.99, 60}, {384, 0.95, 20}, {100, 0.99, 1}, {0, 0.9, 0}} {
		if got := samplesBeyond(c.n, c.q); got != c.want {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
// statistics.quantiles([3, 1, 2], n=4)    == [1.0, 2.0, 3.0]
func TestQuartileSpreadMatchesPython(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, med, q3, spread := quartileSpread(xs)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 || math.Abs(spread-1.0) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v %v %v %v", q1, med, q3, spread)
	}
	q1, med, q3, _ = quartileSpread([]float64{3, 1, 2})
	if q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartileSpread(3,1,2) = %v %v %v", q1, med, q3)
	}
}

func TestCountingListener(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: raw}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(c, buf); err != nil {
			done <- err
			return
		}
		_, err = c.Write([]byte("abc"))
		if err == nil {
			_, err = c.Write([]byte("defg"))
		}
		done <- err
	}()
	c, err := net.Dial("tcp", raw.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, make([]byte, 7)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := ln.counts(); got != (wireCounts{bytesRead: 5, bytesWritten: 7, writes: 2}) {
		t.Errorf("counts = %+v, want 5 read, 7 written in 2 writes", got)
	}
}

// BENCHMARK.json is generated from spec.go and must stay inside the
// limits the benchmark contract sets.
func TestBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("BENCHMARK.json is out of step with spec.go; regenerate it with: bash bench/run.sh -benchmark-json > BENCHMARK.json")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics", len(workloads), len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("end-to-end metric %+v breaks the contract", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Errorf("no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Layer == "" || m.Moves == "" {
			t.Errorf("per-layer metric %+v is incomplete", m)
		}
	}
	if runSeconds < 1 || runSeconds > 60 || len(got) > 64<<10 {
		t.Errorf("run_seconds %d, file %d bytes", runSeconds, len(got))
	}
}

// Every workload, both passes, at smoke size: the harness runs end to
// end, nothing fails, every declared metric is reported, and the design
// digests match golden.json.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	digests := map[string][]string{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o, spans, err := runPass(w, 1, time.Second, traced, true, out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if len(o.Digests) > 0 {
				if err := checkGolden(o, 1, true); err != nil {
					t.Fatal(err)
				}
				if !traced {
					digests[w.Name] = o.Digests
				}
			}
			if o.Failed != 0 || o.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.Name, traced, o.Failed, o.Attempted, o.Failures)
			}
			line, err := contractLine(o, traced)
			if err != nil {
				t.Errorf("%s traced=%v: %v", w.Name, traced, err)
				continue
			}
			var parsed struct {
				Correct bool
				Metrics map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(line), &parsed); err != nil {
				t.Fatalf("%s: result line is not JSON: %v", w.Name, err)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
				if len(spans) == 0 {
					t.Errorf("%s: traced pass recorded no spans", w.Name)
				}
			}
			if len(parsed.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics in the result, %d declared", w.Name, traced, len(parsed.Metrics), len(specs))
			}
			if !traced {
				for name, v := range parsed.Metrics {
					if !(v.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, name, v.Value)
					}
				}
			}
		}
	}
	loc, net := digests["design_local"], digests["design_netcluster"]
	if len(loc) == 0 || len(loc) != len(net) {
		t.Fatalf("digests: %d in process, %d over netcluster", len(loc), len(net))
	}
	for r := range loc {
		if loc[r] != net[r] {
			t.Errorf("run %d: digest %s in process, %s over netcluster", r, loc[r], net[r])
		}
	}
	left, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("passes left %d entries behind in the output directory", len(left))
	}
}
