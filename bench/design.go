package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/evalbackend"
	"repro/internal/netcluster"
	"repro/internal/obs"
	"repro/internal/seq"
)

// designRun is what the harness observed of one core.Design call.
type designRun struct {
	start  time.Time
	end    time.Time
	wall   time.Duration // end - start less the host clock's samples
	genMS  []float64     // OnGeneration-to-OnGeneration (first: call start)
	genEnd []time.Time   // when each generation's OnGeneration came
	digest string
	recs   []obs.GenerationRecord
	evals  []evalCall // traced runs only
}

// evalCall is one Backend.EvaluateAll seen by the harness wrapper.
type evalCall struct {
	gen   int // generations completed when the call was made
	seqs  []seq.Sequence
	hints map[string]string
	dur   time.Duration
}

// spanBackend is the harness's evalbackend.Backend wrapper installed as
// Options.Backend on traced runs: a span and a record per call into the
// layer below the Designer's own middleware (fitness cache, metrics).
type spanBackend struct {
	inner  evalbackend.Backend
	layer  string
	tr     *tracer
	op     int
	parent int
	gen    func() int
	calls  []evalCall
}

func (b *spanBackend) EvaluateAll(ctx context.Context, seqs []seq.Sequence) ([]cluster.Result, error) {
	hints, _ := cluster.ParentHintsFrom(ctx)
	sp := b.tr.start("Backend.EvaluateAll", b.layer, b.op, b.parent)
	t0 := time.Now()
	res, err := b.inner.EvaluateAll(ctx, seqs)
	dur := time.Since(t0)
	b.tr.end(sp)
	b.calls = append(b.calls, evalCall{gen: b.gen(), seqs: seqs, hints: hints, dur: dur})
	return res, err
}

func (b *spanBackend) Stats() evalbackend.Stats { return b.inner.Stats() }
func (b *spanBackend) Close() error             { return nil }

// designPath is where a design run's candidates are evaluated.
type designPath struct {
	p     *problem
	shape designShape
	// leaf, when non-nil, replaces the Designer's default in-process
	// pool (the netcluster master adapter). layer names it in spans.
	leaf  evalbackend.Backend
	layer string
	// nonTargets, when non-nil, overrides the problem's non-target list
	// (the S40 job shape uses fewer).
	nonTargets []int
	// clock, when non-nil, samples the host's speed after every
	// generation, while the pool or fleet is idle.
	clock *hostClock
}

func (dp designPath) nts() []int {
	if dp.nonTargets != nil {
		return dp.nonTargets
	}
	return dp.p.nonTargets
}

func localPath(p *problem, shape designShape) designPath {
	return designPath{p: p, shape: shape, layer: "cluster"}
}

// run executes one design run with GA seed gaSeed and checks it: no
// error, all generations run, the journal conservation identity on
// every record, best fitness in [0, 1]. A run that breaks any of these
// is one failed operation. With tr non-nil the run is traced: spans around core.Design
// and every backend call, stage histograms in reg.
func (dp designPath) run(gaSeed int64, o *outcome, tr *tracer, reg *obs.Registry) designRun {
	opts := dp.shape.options(gaSeed)
	opts.Backend = dp.leaf
	opts.Metrics = reg

	var run designRun
	failed := false
	fail := func(format string, args ...any) {
		if !failed {
			failed = true
			o.fail("run %d: "+format, append([]any{gaSeed}, args...)...)
		}
	}
	op, root, sp := 0, 0, 0
	var sb *spanBackend
	if tr != nil {
		op = int(gaSeed)
		root = tr.start("design.run", rootLayer, op, 0)
		sp = tr.start("core.Design", "core", op, root)
		inner := dp.leaf
		if inner == nil {
			pb, err := evalbackend.NewPool(dp.p.eng, dp.p.target, dp.nts(), opts.Cluster)
			if err != nil {
				fail("%v", err)
				return run
			}
			inner = pb
		}
		sb = &spanBackend{inner: inner, layer: dp.layer, tr: tr, op: op, parent: sp,
			gen: func() int { return len(run.genMS) }}
		opts.Backend = sb
	}

	h := fnv.New64a()
	last := time.Now()
	run.start = last
	var spun time.Duration
	opts.OnGeneration = func(core.CurvePoint) {
		now := time.Now()
		run.genMS = append(run.genMS, ms(now.Sub(last)))
		run.genEnd = append(run.genEnd, now)
		dp.clock.sample(1)
		last = time.Now()
		spun += last.Sub(now)
	}
	opts.OnJournalRecord = func(rec *obs.GenerationRecord) {
		h.Write([]byte(rec.PopHash))
		if rec.AccountedCandidates() != rec.Population {
			fail("gen %d: evaluated %d + cache_hits %d + abandoned %d + estimated %d != population %d",
				rec.Generation, rec.Evaluated, rec.CacheHits, rec.AbandonedTasks, rec.SurrogateEstimated, rec.Population)
		}
		run.recs = append(run.recs, *rec)
	}
	o.attempt()
	res, err := core.Design(dp.p.eng, dp.p.target, dp.nts(), opts)
	run.end = time.Now()
	run.wall = run.end.Sub(run.start) - spun
	tr.end(sp)
	tr.end(root)
	if sb != nil {
		run.evals = sb.calls
	}
	switch {
	case err != nil:
		fail("%v", err)
	case res.Generations != dp.shape.generations:
		fail("%d generations, want %d", res.Generations, dp.shape.generations)
	case !(res.BestDetail.Fitness >= 0 && res.BestDetail.Fitness <= 1):
		fail("best fitness %g outside [0, 1]", res.BestDetail.Fitness)
	}
	h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(res.BestDetail.Fitness)))
	run.digest = fmt.Sprintf("%016x", h.Sum64())
	return run
}

// fleet is a loopback netcluster: one master and in-harness workers,
// all torn down by stop.
type fleet struct {
	master *netcluster.Master
	ln     *countingListener
	stop   func() error
}

const fleetWorkers = 2

// startFleet brings a master up on a loopback listener with
// fleetWorkers RunWorkerLoop workers x 1 thread and waits until all are
// connected and initialised.
func startFleet(ctx context.Context, p *problem, nonTargets []int) (*fleet, error) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ln := &countingListener{Listener: raw}
	master := netcluster.NewMasterOptions(netcluster.NewSetup(p.eng, p.target, nonTargets, 1), ln, netcluster.Options{})
	wctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for w := 0; w < fleetWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = netcluster.RunWorkerLoop(wctx, master.Addr(), netcluster.WorkerOptions{}) // ends with ctx's error at teardown
		}()
	}
	f := &fleet{master: master, ln: ln}
	f.stop = func() error {
		cancel()
		wg.Wait()
		return master.Close()
	}
	deadline := time.Now().Add(60 * time.Second)
	for master.Workers() < fleetWorkers {
		if time.Now().After(deadline) {
			_ = f.stop()
			return nil, fmt.Errorf("netcluster fleet: %d of %d workers connected after 60s", master.Workers(), fleetWorkers)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return f, nil
}
