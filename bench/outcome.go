package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
)

// metricValue is one measured metric; N is the sample count behind a
// timing (0 for exact counts and ratios of totals).
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// outcome accumulates what one pass of one workload produced: the
// operations attempted and failed (a correctness violation is a failed
// operation), and the metrics by name.
type outcome struct {
	mu        sync.Mutex
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"` // first few, for the log
	Metrics   map[string]metricValue `json:"metrics"`
	// Wall holds the end-to-end times as the wall clock read them, before
	// the host clock scaled them to reference time (hostclock.go).
	Wall    map[string]float64 `json:"wall,omitempty"`
	Digests []string           `json:"digests,omitempty"`
}

func newOutcome() *outcome { return &outcome{Metrics: make(map[string]metricValue)} }

const maxFailureMessages = 10

// attempt counts one operation.
func (o *outcome) attempt() {
	o.mu.Lock()
	o.Attempted++
	o.mu.Unlock()
}

// fail records one failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.Failed++
	if len(o.Failures) < maxFailureMessages {
		o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
	}
}

// set stores a metric declared in spec.go; an undeclared name is a
// harness bug.
func (o *outcome) set(name string, value float64, n int) {
	m, ok := metricByName(name)
	if !ok {
		panic("bench: metric " + name + " is not declared in spec.go")
	}
	o.mu.Lock()
	o.Metrics[name] = metricValue{Value: value, Unit: m.Unit, N: n}
	o.mu.Unlock()
}

// setScaled stores an end-to-end time: the reference-time value as the
// metric, the wall-clock value beside it.
func (o *outcome) setScaled(name string, value, wall float64, n int) {
	o.set(name, value, n)
	o.mu.Lock()
	if o.Wall == nil {
		o.Wall = make(map[string]float64)
	}
	o.Wall[name] = wall
	o.mu.Unlock()
}

// fillZero gives every declared metric of the pass a value, so a
// workload that does not exercise a layer reports that layer's metrics
// as 0 instead of omitting them.
func (o *outcome) fillZero(specs []metricSpec) {
	for _, m := range specs {
		if _, ok := o.Metrics[m.Name]; !ok {
			o.Metrics[m.Name] = metricValue{Unit: m.Unit}
		}
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
