package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one timed interval at a layer boundary, recorded by the
// harness around a call into a layer's public functions (or rebuilt
// from timestamps the program reports, e.g. JobJSON started/finished).
// Parent is the span that caused it (0 = none); spans of one operation
// share Op.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// rootLayer marks the per-operation root spans the harness opens; time
// a root span's children do not cover lies in no named layer.
const rootLayer = "op"

// tracer keeps spans in memory until the workload ends. A nil *tracer
// is the untraced pass: every method is a no-op.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name, layer string, op, parent int) int {
	if t == nil {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Layer: layer, Op: op, Parent: parent, StartNS: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (wall-clock
// timestamps reported by the program).
func (t *tracer) add(name, layer string, op, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Layer: layer, Op: op, Parent: parent,
		StartNS: int64(start.Sub(t.t0)), EndNS: int64(end.Sub(t.t0))})
	return id
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover. Children may overlap each
// other (parallel workers) and may stick out of the parent (timestamps
// from another clock reading); both are handled by clipping children
// to the parent and taking the union.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		dur := s.EndNS - s.StartNS
		if dur < 0 {
			dur = 0
		}
		self[s.ID] = dur - coveredBy(s, children[s.ID])
	}
	return self
}

// coveredBy is the length of the union of kids' intervals clipped to p.
func coveredBy(p span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.StartNS, k.EndNS
		if lo < p.StartNS {
			lo = p.StartNS
		}
		if hi > p.EndNS {
			hi = p.EndNS
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, end int64
	end = p.StartNS
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		if v.lo < end {
			v.lo = end
		}
		covered += v.hi - v.lo
		end = v.hi
	}
	return covered
}

// layerSelfTimes sums span self time by layer.
func layerSelfTimes(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Layer] += self[s.ID]
	}
	return out
}

// unattributedFrac is the share of operation wall time (the root "op"
// spans) that no child span of a named layer covers.
func unattributedFrac(spans []span) float64 {
	self := selfTimes(spans)
	var total, bare int64
	for _, s := range spans {
		if s.Layer == rootLayer && s.Parent == 0 {
			total += s.EndNS - s.StartNS
			bare += self[s.ID]
		}
	}
	return ratio(float64(bare), float64(total))
}

// traceFile is what trace-<workload>.json holds.
type traceFile struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	LayerSelfMS map[string]float64 `json:"layer_self_ms"`
	Spans       []span             `json:"spans"`
}

func writeTrace(path, workload string, seed int64, spans []span) error {
	tf := traceFile{Workload: workload, Seed: seed, Spans: spans, LayerSelfMS: map[string]float64{}}
	for layer, ns := range layerSelfTimes(spans) {
		tf.LayerSelfMS[layer] = float64(ns) / 1e6
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
