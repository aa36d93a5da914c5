// Package cluster implements the paper's two-level master/worker engine
// (Section 2.3) in-process: the master hands candidate sequences to
// worker processes on demand (Algorithm 1), and each worker preprocesses
// the candidate and scores it against the target and non-targets with a
// pool of computational threads sharing read-only data (Algorithm 2).
//
// MPI ranks become goroutines and the broadcast data (interaction graph,
// similarity database and index, protein sequences) becomes the shared
// immutable pipe.Engine. On-demand dispatch is one shared counter: a
// worker claims the next candidate with a fetch-and-add the moment it
// finishes one, which is exactly the paper's load-balancing argument,
// and no master thread has to be woken to answer the request (forEach).
// A static round-robin dispatcher is included for the ablation of that
// choice.
package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/seq"
)

// Config sizes the worker pool.
type Config struct {
	// Workers is the number of worker processes (the paper's cluster
	// nodes). Default 4.
	Workers int
	// ThreadsPerWorker is the number of computational threads inside each
	// worker (the paper's OpenMP threads; 64 on a BG/Q node). Default 4.
	ThreadsPerWorker int
	// Metrics, if non-nil, records each candidate's scoring time in the
	// obs.StageEvalTask histogram.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.ThreadsPerWorker == 0 {
		c.ThreadsPerWorker = 4
	}
	return c
}

// Result carries the PIPE predictions for one candidate: the scores the
// master needs to compute the candidate's fitness.
//
// A target-only result (TargetOnly set) answers a target-first call
// (WithTargetFirst) for a candidate whose target score is exactly 0:
// TargetScore is 0 and NonTargetScores is nil, because no non-target or
// co-target was scored. Its fitness is exactly 0 whatever those would
// have scored, so a fitness-only consumer may use it as it is; a
// consumer of the non-target scores must rescore the candidate in full.
// Only a pool called with the mark and non-targets to skip returns one.
type Result struct {
	Index           int
	TargetScore     float64
	NonTargetScores []float64
	TargetOnly      bool
	// Attempts is the number of dispatch attempts a distributed run
	// needed to land the task (1 = first try); in-process evaluation,
	// which cannot lose tasks, leaves it zero.
	Attempts int
	// Err is set when a distributed run abandoned the task — e.g. every
	// attempt hit a crashed worker or an expired lease (see
	// netcluster.ErrTaskAbandoned). The scores are then meaningless and
	// the caller decides the fallback (core scores such candidates as
	// zero fitness).
	Err error
}

// Report is the instrumented outcome of evaluating one generation; the
// timing fields calibrate the Blue Gene/Q scaling model (package bgqsim).
type Report struct {
	Results []Result
	// Elapsed is the wall-clock time of the whole evaluation.
	Elapsed time.Duration
	// WorkerBusy is the per-worker total task-processing time; its max is
	// the makespan a real distributed run would see.
	WorkerBusy []time.Duration
	// TaskTimes is the per-candidate processing time (preprocessing plus
	// all PIPE predictions).
	TaskTimes []time.Duration
}

// Makespan returns the busiest worker's total processing time — the
// generation time a distributed deployment is bounded by.
func (r Report) Makespan() time.Duration {
	var max time.Duration
	for _, b := range r.WorkerBusy {
		if b > max {
			max = b
		}
	}
	return max
}

// Pool evaluates candidate sequences against a fixed target and
// non-target set. It is safe for concurrent use; each EvaluateAll call
// spins up its own worker goroutines.
type Pool struct {
	engine       *pipe.Engine
	targetID     int
	nonTargetIDs []int
	cfg          Config

	// Retained preprocessed queries, by residue content, when
	// generation-aware evaluation is active (see EvaluateAllContext):
	// parents is the previous generation, read as delta-preprocessing
	// parents and never written once rotated in (shipped parents arrive
	// in a copy that replaces it); current accumulates
	// the generation numbered round, starting from the members it
	// inherits unchanged from parents.
	mu      sync.Mutex
	round   int64
	parents map[string]*pipe.Query
	current map[string]*pipe.Query
}

// New creates a pool. The target and non-target IDs must be valid protein
// IDs of the engine's proteome.
func New(engine *pipe.Engine, targetID int, nonTargetIDs []int, cfg Config) (*Pool, error) {
	if cfg.Workers < 0 || cfg.ThreadsPerWorker < 0 {
		return nil, fmt.Errorf("cluster: negative pool size (%d workers x %d threads)", cfg.Workers, cfg.ThreadsPerWorker)
	}
	cfg = cfg.withDefaults()
	n := engine.Graph().NumProteins()
	if targetID < 0 || targetID >= n {
		return nil, fmt.Errorf("cluster: target ID %d out of range", targetID)
	}
	for _, id := range nonTargetIDs {
		if id < 0 || id >= n {
			return nil, fmt.Errorf("cluster: non-target ID %d out of range", id)
		}
		if id == targetID {
			return nil, fmt.Errorf("cluster: target %d also listed as non-target", id)
		}
	}
	return &Pool{engine: engine, targetID: targetID, nonTargetIDs: nonTargetIDs, cfg: cfg}, nil
}

// Config returns the pool's effective configuration.
func (p *Pool) Config() Config { return p.cfg }

// TargetID returns the target protein ID.
func (p *Pool) TargetID() int { return p.targetID }

// NonTargetIDs returns the non-target protein IDs (shared; read-only).
func (p *Pool) NonTargetIDs() []int { return p.nonTargetIDs }

// processCandidate is Algorithm 2's body: preprocess the candidate
// (build its similarity profile in parallel), then let the worker's
// threads pull target/non-target predictions until none remain.
func (p *Pool) processCandidate(s seq.Sequence) Result {
	return p.scoreQuery(p.engine.NewQuery(s, p.cfg.ThreadsPerWorker), false)
}

// EvaluateAll scores every candidate through the batched preprocessing
// path (identical window content deduped across the generation, window
// cache shared with earlier generations) followed by on-demand scoring
// dispatch, returning results indexed like seqs. Scores are
// bit-identical to the per-candidate path EvaluateAllReport uses.
func (p *Pool) EvaluateAll(seqs []seq.Sequence) []Result {
	return p.EvaluateAllContext(context.Background(), seqs)
}

// EvaluateAllReport is EvaluateAll with full instrumentation.
func (p *Pool) EvaluateAllReport(seqs []seq.Sequence) Report {
	return p.evaluate(seqs, false)
}

// EvaluateAllStatic partitions candidates round-robin up front instead of
// dispatching on demand (the ablation of the paper's load-balancing
// choice); compare Report.Makespan against the on-demand dispatcher.
func (p *Pool) EvaluateAllStatic(seqs []seq.Sequence) Report {
	return p.evaluate(seqs, true)
}

func (p *Pool) evaluate(seqs []seq.Sequence, static bool) Report {
	start := time.Now()
	rep := Report{
		Results:    make([]Result, len(seqs)),
		WorkerBusy: make([]time.Duration, p.cfg.Workers),
		TaskTimes:  make([]time.Duration, len(seqs)),
	}
	process := func(w, i int) {
		t0 := time.Now()
		res := p.processCandidate(seqs[i])
		res.Index = i
		rep.Results[i] = res
		rep.TaskTimes[i] = time.Since(t0)
		rep.WorkerBusy[w] += rep.TaskTimes[i]
		p.cfg.Metrics.Observe(obs.StageEvalTask, rep.TaskTimes[i])
	}
	if static {
		// Round-robin: worker w gets candidates w, w+W, w+2W, ...
		var wg sync.WaitGroup
		for w := 0; w < p.cfg.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(seqs); i += p.cfg.Workers {
					process(w, i)
				}
			}(w)
		}
		wg.Wait()
	} else {
		forEach(p.cfg.Workers, len(seqs), process)
	}
	rep.Elapsed = time.Since(start)
	return rep
}

// forEach is the on-demand dispatch of Algorithm 1: it calls fn(w, i)
// once for every i in [0, n) from min(workers, n) goroutines numbered w,
// and returns when all have finished. The fetch-and-add is the work
// request — a worker gets its next candidate the moment it finishes one
// — and the END signal is the counter passing n.
func forEach(workers, n int, fn func(w, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}
