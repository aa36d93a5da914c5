package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/evalbackend"
	"repro/internal/netcluster"
	"repro/internal/obs"
	"repro/internal/seq"
	"repro/internal/server"
)

// pass is one run of one workload: untraced (end-to-end metrics) or
// traced (per-layer metrics and spans).
type pass struct {
	spec    workloadSpec
	seed    int64
	seconds time.Duration // measured duration of the untraced pass
	smoke   bool
	tmp     string  // scratch directory of this pass, removed when it ends
	tr      *tracer // nil on the untraced pass
	clock   *hostClock
	o       *outcome

	setupRef, setupWall []float64 // seconds per set-up so far: reference time, wall time
}

// setupReps is how many times a pass performs the workload's full
// set-up; setup_s is the median.
const (
	setupReps    = 5
	setupSamples = 8
)

// tracedShare is the part of -seconds the traced pass spends on traced
// operations; the rest of its time goes to the single-layer replays.
const tracedShare = 0.6

func (ps *pass) measureFor() time.Duration {
	if ps.tr != nil {
		return time.Duration(float64(ps.seconds) * tracedShare)
	}
	return ps.seconds
}

// processDelta reports allocation and GC pause between two MemStats.
func (ps *pass) processDelta(before, after *runtime.MemStats, ops int) {
	ps.o.set("process.alloc_bytes_per_op", ratio(float64(after.TotalAlloc-before.TotalAlloc), float64(ops)), ops)
	ps.o.set("process.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, int(after.NumGC-before.NumGC))
}

// timeSetup times one full set-up, with setupSamples samples of the
// host's speed on either side of it. A collection is forced before each
// group of samples: a set-up leaves the previous engine as garbage, and
// a concurrent collection beside the samples would read as a slow host.
func (ps *pass) timeSetup(setup func() error) error {
	runtime.GC()
	ps.clock.sample(setupSamples)
	t0 := time.Now()
	err := setup()
	t1 := time.Now()
	runtime.GC()
	ps.clock.sample(setupSamples)
	wall := t1.Sub(t0).Seconds()
	ps.setupWall = append(ps.setupWall, wall)
	ps.setupRef = append(ps.setupRef, wall*ps.clock.factor(t0, t1))
	return err
}

// finishSetups repeats the set-up until setupReps have been timed (the
// pass's own was the first) and reports setup_s.
func (ps *pass) finishSetups(again func(rep int) error) error {
	reps := setupReps
	if ps.smoke {
		reps = 3
	}
	for rep := len(ps.setupRef); rep < reps; rep++ {
		if err := ps.timeSetup(func() error { return again(rep) }); err != nil {
			return fmt.Errorf("set-up repetition %d: %w", rep, err)
		}
	}
	ps.o.setScaled("setup_s", median(ps.setupRef), median(ps.setupWall), len(ps.setupRef))
	return nil
}

// hostMetrics reports what the host clock saw over the pass.
func (ps *pass) hostMetrics() {
	cal := ps.clock.calMS()
	_, _, _, spread := quartileSpread(cal)
	ps.o.set("host.cal_ms_p50", median(cal), len(cal))
	ps.o.set("host.cal_ms_spread", spread, len(cal))
}

// setupSpans reads the set-up layer metrics off the spans recorded by
// the first set-up.
func (ps *pass) setupSpans(spans []span) {
	for _, s := range spans {
		d := float64(s.EndNS-s.StartNS) / 1e6
		switch s.Name {
		case "yeastgen.Generate":
			ps.o.set("yeastgen.generate_ms", d, 1)
		case "pipe.New":
			ps.o.set("pipe.build_ms", d, 1)
		case "netcluster.fleet_up":
			ps.o.set("netcluster.fleet_up_ms", d, 1)
		case "server.boot":
			ps.o.set("server.boot_ms", d, 1)
		case "simindex.Build":
			ps.o.set("simindex.build_ms", d, 1)
		}
	}
}

// ---- design_local / design_netcluster ----

type designEnv struct {
	p     *problem
	fleet *fleet // nil on the in-process path
	path  designPath
}

func setupDesign(useNet bool, shape designShape, tr *tracer, op int) (*designEnv, error) {
	p, err := buildProblem(tr, op)
	if err != nil {
		return nil, err
	}
	e := &designEnv{p: p, path: localPath(p, shape)}
	if useNet {
		sp := tr.start("netcluster.fleet_up", "netcluster", op, 0)
		f, err := startFleet(context.Background(), p, p.nonTargets)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		e.fleet = f
		e.path.leaf = evalbackend.NewMaster(f.master)
		e.path.layer = "netcluster"
	}
	return e, nil
}

func (e *designEnv) close() error {
	if e.fleet == nil {
		return nil
	}
	return e.fleet.stop()
}

func runDesignWorkload(ps *pass, useNet bool) error {
	shape, warm := shapeD200, d200WarmRuns
	if useNet {
		warm = netWarmRuns
	}
	if ps.smoke {
		shape, warm = shapeSmoke, 1
	}
	var env *designEnv
	err := ps.timeSetup(func() (err error) {
		env, err = setupDesign(useNet, shape, ps.tr, 0)
		return err
	})
	if err != nil {
		return err
	}
	defer env.close() // error paths; the success path checks close below
	local := localPath(env.p, shape)

	var replay []evalCall // the generations the single-layer replays re-evaluate

	// digests[r] is run r's digest, whichever path ran it.
	digests := map[int]string{}
	note := func(r int, run designRun) {
		if prev, ok := digests[r]; ok && prev != run.digest {
			ps.o.fail("run %d: digest %s on one path, %s on the other", r, prev, run.digest)
		}
		digests[r] = run.digest
	}
	for r := 0; r < warm; r++ {
		note(r, env.path.run(gaSeed(ps.seed, r), ps.o, nil, nil))
	}

	if ps.tr == nil {
		env.path.clock = ps.clock // a speed sample after every generation
		var gen, run opTimes
		t0 := time.Now()
		for r := warm; ; r++ {
			dr := env.path.run(gaSeed(ps.seed, r), ps.o, nil, nil)
			note(r, dr)
			for g, d := range dr.genMS {
				gen.add(d, ps.clock.factor(dr.genEnd[g].Add(-time.Duration(d*float64(time.Millisecond))), dr.genEnd[g]))
			}
			run.add(ms(dr.wall), ps.clock.factor(dr.start, dr.end))
			if ps.smoke || time.Since(t0) >= ps.seconds {
				break
			}
		}
		perRun := float64(shape.population * shape.generations)
		ps.o.setScaled("throughput", perRun*1e3/median(run.ref), perRun*1e3/median(run.wall), len(run.ref))
		gen.report(ps.o, ps.spec.Tail)
		ps.o.set("peak_rss_mb", peakRSSMB(), 1)
		if useNet {
			// Same problem, same bits: the first measured run again, in process.
			note(warm, local.run(gaSeed(ps.seed, warm), ps.o, nil, nil))
		}
	} else {
		if replay, err = tracedDesign(ps, env, local, warm, note); err != nil {
			return err
		}
	}
	for r := 0; r < len(digests); r++ {
		ps.o.Digests = append(ps.o.Digests, digests[r])
	}
	if err := env.close(); err != nil {
		return fmt.Errorf("tearing the fleet down: %w", err)
	}

	var spare []*problem // fresh engines of the repeated set-ups, for the replays
	err = ps.finishSetups(func(int) error {
		e, err := setupDesign(useNet, shape, nil, 0)
		if err != nil {
			return err
		}
		spare = append(spare, e.p)
		return e.close()
	})
	if err != nil {
		return err
	}
	if ps.tr != nil && len(spare) >= 2 {
		return replayLayers(spare[0], spare[1], replay, ps.o, ps.tr)
	}
	return nil
}

// replayGenerations bounds how many captured generations the serial
// single-layer replays re-evaluate (each costs about two generations'
// wall on each of the two replays).
const replayGenerations = 12

// tracedDesign is the traced pass of a design workload. Runs alternate
// traced (spans, backend wrapper, stage histograms) and untraced, so
// the two sets of run times give the tracing overhead. On the
// netcluster path every traced run is followed by the same run in
// process (same GA seed, so the same generations bit for bit): their
// evaluation times give the path's overhead per candidate.
func tracedDesign(ps *pass, env *designEnv, local designPath, warm int, note func(int, designRun)) ([]evalCall, error) {
	useNet := env.fleet != nil
	if useNet {
		fill := d200WarmRuns // fill the master engine's window cache for the mirror runs
		if ps.smoke {
			fill = warm
		}
		for r := 0; r < fill; r++ {
			note(r, local.run(gaSeed(ps.seed, r), ps.o, nil, nil))
		}
	}
	shape := env.path.shape
	reg := obs.NewRegistry()
	var traced, mirror []designRun
	var tracedWall, untracedWall, mirrorWall []float64
	var netBefore netcluster.Stats
	var wireBefore wireCounts
	if useNet {
		netBefore, wireBefore = env.fleet.master.Stats(), env.fleet.ln.counts()
	}
	_, reusedBefore := env.p.eng.DeltaStats()
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	t0 := time.Now()
	for r := warm; ; r++ {
		ps.clock.sample(3) // between runs: the host.* metrics of the traced pass
		if (r-warm)%2 == 1 {
			run := env.path.run(gaSeed(ps.seed, r), ps.o, nil, nil)
			note(r, run)
			untracedWall = append(untracedWall, run.wall.Seconds())
			if ps.smoke || time.Since(t0) >= ps.measureFor() {
				break
			}
			continue
		}
		run := env.path.run(gaSeed(ps.seed, r), ps.o, ps.tr, reg)
		note(r, run)
		traced = append(traced, run)
		tracedWall = append(tracedWall, run.wall.Seconds())
		if useNet {
			m := local.run(gaSeed(ps.seed, r), ps.o, ps.tr, nil)
			note(r, m)
			mirror = append(mirror, m)
			mirrorWall = append(mirrorWall, m.wall.Seconds())
		}
	}
	runtime.ReadMemStats(&memAfter)

	var genSelf, evalPerGen []float64
	var cands, population, cacheHits, evaluated, abandoned, gens int
	var winHits, winMisses, winEvicted, deltaQueries int64
	for _, run := range traced {
		evalOf := make([]time.Duration, len(run.genMS))
		for _, c := range run.evals {
			if c.gen < len(evalOf) {
				evalOf[c.gen] += c.dur
			}
			cands += len(c.seqs)
		}
		for g, d := range run.genMS {
			genSelf = append(genSelf, d-ms(evalOf[g]))
			evalPerGen = append(evalPerGen, ms(evalOf[g]))
		}
		for _, rec := range run.recs {
			population += rec.Population
			cacheHits += rec.CacheHits
			evaluated += rec.Evaluated
			abandoned += rec.AbandonedTasks
			winHits += rec.WinCacheHits
			winMisses += rec.WinCacheMisses
			winEvicted += rec.WinCacheEvicted
			deltaQueries += rec.DeltaQueries
		}
		gens += len(run.genMS)
	}
	if cands != evaluated+abandoned {
		ps.o.fail("%d candidates reached the backend wrapper but the journal accounts %d evaluated + %d abandoned", cands, evaluated, abandoned)
	}
	o := ps.o
	fg := float64(gens)
	o.set("core.run_s_p50", median(tracedWall), len(tracedWall))
	o.set("core.gen_self_ms_p50", median(genSelf), len(genSelf))
	o.set("core.stage_ga_ms_per_gen", ms(reg.Histogram(obs.StageGACopy).Sum()+reg.Histogram(obs.StageGAMutate).Sum()+reg.Histogram(obs.StageGACrossover).Sum())/fg, gens)
	o.set("core.stage_eval_ms_per_gen", ms(reg.Histogram(obs.StageEval).Sum())/fg, gens)
	o.set("core.stage_generation_ms_per_gen", ms(reg.Histogram(obs.StageGeneration).Sum())/fg, gens)
	o.set("evalbackend.fitcache_hit_ratio", ratio(float64(cacheHits), float64(population)), population)
	o.set("evalbackend.cands_in_per_gen", float64(cands)/fg, gens)
	o.set("evalbackend.eval_ms_per_gen_p50", median(evalPerGen), len(evalPerGen))
	o.set("evalbackend.abandoned", float64(abandoned), population)
	o.set("simindex.windows_per_gen", float64(winHits+winMisses)/fg, gens)
	o.set("simindex.window_hit_ratio", ratio(float64(winHits), float64(winHits+winMisses)), int(winHits+winMisses))
	o.set("simindex.window_evictions_per_gen", float64(winEvicted)/fg, gens)
	if !useNet {
		_, reusedAfter := env.p.eng.DeltaStats()
		windowsPerSeq := shape.seqLen - env.p.eng.Index().Config().Window + 1
		o.set("simindex.delta_reused_window_ratio",
			ratio(float64(reusedAfter-reusedBefore), float64(deltaQueries)*float64(windowsPerSeq)), int(deltaQueries))
	}
	step, n, err := searchStepUSPerCand(shape, ps.seed)
	if err != nil {
		return nil, err
	}
	o.set("search.step_us_per_cand", step, n)
	allRuns := len(tracedWall) + len(untracedWall) + len(mirrorWall)
	ps.processDelta(&memBefore, &memAfter, allRuns*shape.population*shape.generations)
	o.set("trace.overhead_frac", ratio(median(tracedWall), median(untracedWall))-1, len(tracedWall)+len(untracedWall))

	if useNet {
		st, wire := env.fleet.master.Stats(), env.fleet.ln.counts()
		dispatched := st.TasksDispatched - netBefore.TasksDispatched
		var netEval, poolEval time.Duration
		var netPerGen []float64
		for i, run := range traced {
			for _, c := range run.evals {
				netEval += c.dur
				netPerGen = append(netPerGen, ms(c.dur))
			}
			for _, c := range mirror[i].evals {
				poolEval += c.dur
			}
		}
		// Untraced runs in between used the wire too; count candidates by
		// tasks dispatched, which covers both.
		o.set("netcluster.evalall_ms_per_gen_p50", median(netPerGen), len(netPerGen))
		o.set("netcluster.overhead_us_per_cand", ratio(us(netEval-poolEval), float64(cands)), cands)
		o.set("netcluster.wire_bytes_per_cand", ratio(float64(wire.bytesRead-wireBefore.bytesRead+wire.bytesWritten-wireBefore.bytesWritten), float64(dispatched)), int(dispatched))
		o.set("netcluster.writes_per_cand", ratio(float64(wire.writes-wireBefore.writes), float64(dispatched)), int(dispatched))
		o.set("netcluster.tasks_dispatched_per_gen", ratio(float64(dispatched), float64(st.RoundsCompleted-netBefore.RoundsCompleted)), int(st.RoundsCompleted-netBefore.RoundsCompleted))
		o.set("netcluster.tasks_reissued", float64(st.TasksReissued-netBefore.TasksReissued), int(dispatched))
		o.set("netcluster.leases_expired", float64(st.LeasesExpired-netBefore.LeasesExpired), int(dispatched))
		o.set("netcluster.service_ewma_ms", ms(env.fleet.master.EWMAServiceTime()), int(dispatched))
		o.set("netcluster.net_over_local", ratio(median(tracedWall), median(mirrorWall)), len(tracedWall))
	}

	calls := traced[0].evals
	if len(calls) > replayGenerations {
		calls = calls[:replayGenerations]
	}
	return calls, nil
}

// ---- score_proteome ----

const (
	// scoreThreads is the thread budget of each ScoreMany call (nproc here).
	scoreThreads = 2
	// throughputBlock queries (ten cycles of the five difficulty classes)
	// make one throughput sample.
	throughputBlock = 50
	// The host's speed is sampled after every scoreSampleEvery queries.
	scoreSampleEvery = 5
)

func runScoreWorkload(ps *pass) error {
	var p *problem
	err := ps.timeSetup(func() (err error) {
		p, err = buildProblem(ps.tr, 0)
		return err
	})
	if err != nil {
		return err
	}

	warm, verifyEvery, layerQueries := 200, 100, 150
	if ps.smoke {
		warm, verifyEvery, layerQueries = 5, 10, 10
	}
	qs := newQueryStream(p.pr, ps.seed)
	ids := allIDs(len(p.pr.Proteins))
	for i := 0; i < warm; i++ {
		p.eng.ScoreMany(qs.next(), ids, scoreThreads)
	}

	type kept struct {
		q      seq.Sequence
		scores []float64
	}
	type timed struct {
		at time.Time
		d  time.Duration
	}
	var keep []kept
	var ops []timed
	var tracedMS, untracedMS []float64
	var scoreManyDur time.Duration
	wcBefore := p.eng.WindowCacheStats()
	var memBefore, memAfter runtime.MemStats
	if ps.tr != nil {
		runtime.ReadMemStats(&memBefore)
	}
	start := time.Now()
	for n := 0; ; n++ {
		q := qs.next()
		// The traced pass traces alternate blocks of queries.
		tr := ps.tr
		if n/throughputBlock%2 == 1 {
			tr = nil
		}
		root := tr.start("score.query", rootLayer, n+1, 0)
		sp := tr.start("Engine.ScoreMany", "pipe", n+1, root)
		t0 := time.Now()
		scores := p.eng.ScoreMany(q, ids, scoreThreads)
		d := time.Since(t0)
		tr.end(sp)
		tr.end(root)
		ps.o.attempt()
		if len(scores) != len(ids) {
			ps.o.fail("query %d: %d scores for %d proteins", n, len(scores), len(ids))
		}
		ops = append(ops, timed{t0, d})
		if (n+1)%scoreSampleEvery == 0 {
			ps.clock.sample(1)
		}
		if tr != nil {
			tracedMS = append(tracedMS, ms(d))
			scoreManyDur += d
		} else if ps.tr != nil {
			untracedMS = append(untracedMS, ms(d))
		}
		if n%verifyEvery == 0 {
			keep = append(keep, kept{q, scores})
		}
		if ps.smoke && n+1 >= 2*throughputBlock || !ps.smoke && time.Since(start) >= ps.measureFor() {
			break
		}
	}

	// Outputs are right when the threaded batch call agrees bit for bit
	// with the serial one-pair-at-a-time path on the sampled queries.
	scorer := p.eng.AcquireScorer()
	for _, k := range keep {
		q := p.eng.NewQuery(k.q, 1)
		for j, id := range ids {
			if got := scorer.Score(q, id); math.Float64bits(got) != math.Float64bits(k.scores[j]) || !(got >= 0) {
				ps.o.fail("query %s vs protein %d: ScoreMany %v, serial %v", k.q.Name(), id, k.scores[j], got)
				break
			}
		}
	}
	p.eng.ReleaseScorer(scorer)

	if ps.tr == nil {
		var query, block opTimes
		for _, op := range ops {
			query.add(ms(op.d), ps.clock.factor(op.at, op.at.Add(op.d)))
		}
		for b := 0; b+throughputBlock <= len(ops); b += throughputBlock {
			var sum time.Duration
			for _, op := range ops[b : b+throughputBlock] {
				sum += op.d
			}
			last := ops[b+throughputBlock-1]
			block.add(ms(sum), ps.clock.factor(ops[b].at, last.at.Add(last.d)))
		}
		ps.o.setScaled("throughput", throughputBlock*1e3/median(block.ref), throughputBlock*1e3/median(block.wall), len(block.ref))
		query.report(ps.o, ps.spec.Tail)
		ps.o.set("peak_rss_mb", peakRSSMB(), 1)
	} else {
		runtime.ReadMemStats(&memAfter)
		wc := p.eng.WindowCacheStats()
		lookups := wc.Hits - wcBefore.Hits + wc.Misses - wcBefore.Misses
		ps.o.set("simindex.window_hit_ratio", ratio(float64(wc.Hits-wcBefore.Hits), float64(lookups)), int(lookups))
		ps.o.set("pipe.scoremany_us_per_pair", ratio(us(scoreManyDur), float64(len(tracedMS)*len(ids))), len(tracedMS)*len(ids))
		ps.o.set("trace.overhead_frac", ratio(median(tracedMS), median(untracedMS))-1, len(tracedMS)+len(untracedMS))
		ps.processDelta(&memBefore, &memAfter, len(ops))
		layerQs := make([]seq.Sequence, layerQueries)
		for i := range layerQs {
			layerQs[i] = qs.next()
		}
		coldQueryLayers(p, layerQs, ids, ps.o, ps.tr)
	}
	return ps.finishSetups(func(int) error {
		_, err := buildProblem(nil, 0)
		return err
	})
}

// ---- service_burst ----

func setupService(dir string, tr *tracer) (*problem, *service, error) {
	p, err := buildProblem(tr, 0)
	if err != nil {
		return nil, nil, err
	}
	sp := tr.start("server.boot", "server", 0, 0)
	s, err := startService(p, dir)
	tr.end(sp)
	return p, s, err
}

func runServiceWorkload(ps *pass) error {
	shape, warm, storeJobs, directRuns := shapeS40, 2, 400, 9
	if ps.smoke {
		warm, storeJobs, directRuns = 0, 20, 3
	}
	h := &serviceHost{root: ps.tmp}
	defer h.stop() // error paths; the success path checks stop below
	err := ps.timeSetup(func() (err error) {
		var s *service
		h.p, s, err = setupService(filepath.Join(ps.tmp, "daemon0"), ps.tr)
		h.cur, h.booted = s, 1
		return err
	})
	if err != nil {
		return err
	}

	d := ps.measureFor()
	if ps.smoke {
		d = 0 // one round
	}
	if ps.tr == nil {
		sm, err := h.runRounds(shape, ps.seed, warm, d, ps.clock, ps.o, nil)
		if err != nil {
			return err
		}
		var burst opTimes
		for _, b := range sm.bursts {
			burst.add(ms(b.to.Sub(b.from)), ps.clock.factor(b.from, b.to))
		}
		var perSRef, perSWall []float64
		for _, r := range sm.rounds {
			wall := r.to.Sub(r.from).Seconds()
			perSWall = append(perSWall, float64(r.jobs)/wall)
			perSRef = append(perSRef, float64(r.jobs)/(wall*ps.clock.factor(r.from, r.to)))
		}
		ps.o.setScaled("throughput", median(perSRef), median(perSWall), len(perSRef))
		burst.report(ps.o, ps.spec.Tail)
		ps.o.set("peak_rss_mb", peakRSSMB(), 1)
	} else if err := tracedService(ps, h, shape, warm, d, storeJobs, directRuns); err != nil {
		return err
	}
	if err := h.stop(); err != nil {
		return err
	}
	return ps.finishSetups(func(rep int) error {
		_, s, err := setupService(filepath.Join(ps.tmp, fmt.Sprintf("rep%d", rep)), nil)
		if err != nil {
			return err
		}
		return s.stop()
	})
}

// tracedService is the traced pass of service_burst: half the bursts
// traced, half not (their job latencies give the tracing overhead),
// then the daemon's own stage sums, and the obs, jobstore and
// direct-design single-layer measurements.
func tracedService(ps *pass, h *serviceHost, shape designShape, warm int, d time.Duration, storeJobs, directRuns int) error {
	o, p := ps.o, h.p
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	// Another seed, so the job seeds are new to the daemon's fitness cache.
	plain, err := h.runRounds(shape, ps.seed+500, warm, d/2, ps.clock, o, nil)
	if err != nil {
		return err
	}
	sm, err := h.runRounds(shape, ps.seed, 0, d/2, ps.clock, o, ps.tr)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&memAfter)
	// The traced rounds came last, so the running daemon's journals and
	// counters are theirs.
	s := h.cur
	api := newAPIClient(s.base)
	defer api.close()
	after, err := scrapeMetrics(api)
	if err != nil {
		return err
	}

	jobs := float64(len(sm.jobMS))
	o.set("server.job_ms_p50", median(sm.jobMS), len(sm.jobMS))
	o.set("server.submit_ms_p50", median(sm.submitMS), len(sm.submitMS))
	o.set("server.score_ms_p50", median(sm.scoreMS), len(sm.scoreMS))
	o.set("server.claim_wait_ms_p50", median(sm.claimWaitMS), len(sm.claimWaitMS))
	o.set("server.run_ms_p50", median(sm.runMS), len(sm.runMS))
	o.set("server.finish_lag_ms_p50", median(sm.finishLagMS), len(sm.finishLagMS))
	o.set("server.get_ms_p50", median(sm.getMS), len(sm.getMS))
	o.set("server.polls_per_job", ratio(float64(sm.polls), jobs), len(sm.jobMS))
	o.set("server.http_429", float64(sm.http429+plain.http429), len(sm.submitMS)+len(plain.submitMS))
	// The daemon's stage histograms cover every job it ran so far (warm
	// bursts included), so divide by its own count of finished jobs.
	finished := after[`insipsd_jobs{state="done"}`]
	stage := func(name string) float64 {
		return ratio(after[`insipsd_stage_seconds_sum{stage="`+name+`"}`], finished)
	}
	o.set("server.stage_evaluate_s_per_job", stage(obs.StageEval), int(finished))
	o.set("server.stage_generation_s_per_job", stage(obs.StageGeneration), int(finished))
	o.set("server.stage_checkpoint_s_per_job", stage(obs.StageCheckpoint), int(finished))
	ps.processDelta(&memBefore, &memAfter, len(sm.jobMS)+len(plain.jobMS))
	o.set("trace.overhead_frac", ratio(median(sm.jobMS), median(plain.jobMS))-1, len(sm.jobMS)+len(plain.jobMS))

	// The same S40 job through core.Design directly, daemon idle.
	direct := designPath{p: p, shape: shape, layer: "cluster", nonTargets: p.nonTargets[:s40NonTargets]}
	var directMS []float64
	for r := 0; r < directRuns; r++ {
		run := direct.run(gaSeed(ps.seed, 900+r), o, nil, nil)
		directMS = append(directMS, ms(run.wall))
	}
	o.set("server.service_over_direct", ratio(median(sm.jobMS), median(directMS)), len(directMS))

	// obs and jobstore, on what the daemon itself wrote for its last job.
	if sm.lastJob.ID == "" {
		return fmt.Errorf("service_burst: no job finished in the traced pass")
	}
	if err := obsLayers(filepath.Join(s.dir, "runs", sm.lastJob.ID), filepath.Join(ps.tmp, "obs"), o); err != nil {
		return err
	}
	var job server.JobJSON
	if status, _, err := api.do(http.MethodGet, "/v1/designs/"+sm.lastJob.ID, nil, &job); err != nil || status != http.StatusOK {
		return fmt.Errorf("GET /v1/designs/%s: status %d, err %v", sm.lastJob.ID, status, err)
	}
	result, err := json.Marshal(job)
	if err != nil {
		return err
	}
	bc := &burstClient{p: p, shape: shape, seed: ps.seed}
	spec, err := json.Marshal(bc.request())
	if err != nil {
		return err
	}
	return jobstoreLayers(filepath.Join(ps.tmp, "jobstore"), storeJobs, spec, result, o)
}

// ---- dispatch ----

// runPass runs one pass of one workload and returns what it measured.
// Everything it creates lives under tmp and is gone when it returns.
func runPass(spec workloadSpec, seed int64, seconds time.Duration, traced, smoke bool, outDir string) (*outcome, []span, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, nil, err
	}
	tmp, err := os.MkdirTemp(outDir, "tmp-"+spec.Name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)
	clock, err := newHostClock()
	if err != nil {
		return nil, nil, err
	}
	defer clock.close()
	ps := &pass{spec: spec, seed: seed, seconds: seconds, smoke: smoke, tmp: tmp, clock: clock, o: newOutcome()}
	if traced {
		ps.tr = newTracer()
	}
	switch spec.Name {
	case "design_local":
		err = runDesignWorkload(ps, false)
	case "design_netcluster":
		err = runDesignWorkload(ps, true)
	case "score_proteome":
		err = runScoreWorkload(ps)
	case "service_burst":
		err = runServiceWorkload(ps)
	default:
		err = fmt.Errorf("unknown workload %q", spec.Name)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	if n := ps.o.Metrics["op_ms_tail"].N; !traced && !smoke && samplesBeyond(n, spec.Tail) < 10 {
		fmt.Fprintf(os.Stderr, "bench: %s: only %d of %d samples lie beyond p%.0f; op_ms_tail is not a tail at this -seconds\n",
			spec.Name, samplesBeyond(n, spec.Tail), n, spec.Tail*100)
	}
	spans := ps.tr.snapshot()
	if traced {
		ps.setupSpans(spans)
		ps.o.set("trace.unattributed_frac", unattributedFrac(spans), len(spans))
		ps.hostMetrics()
		ps.o.fillZero(perLayer)
	}
	return ps.o, spans, nil
}
