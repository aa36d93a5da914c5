package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/ga"
	"repro/internal/jobstore"
	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/search"
	"repro/internal/seq"
)

// Single-layer measurements of the traced pass: each calls one layer's
// public functions directly, outside the Designer, with inputs captured
// from the real run.

// replayLayers re-evaluates captured generations (candidates + parent
// hints) twice, serially, on two fresh engines in the same start state:
// once through cluster.Pool.EvaluateAllContext, once by the harness
// calling the pipe functions the pool calls (NewQueryBatch,
// NewQueryDelta, Scorer.Score). Serial on both sides, so wall is the sum
// of parts and the pool's self time is the difference. The two must
// agree bit for bit.
func replayLayers(pool, direct *problem, calls []evalCall, o *outcome, tr *tracer) error {
	if len(calls) == 0 {
		return nil
	}
	work := append([]int{pool.target}, pool.nonTargets...)
	pl, err := cluster.New(pool.eng, pool.target, pool.nonTargets, cluster.Config{Workers: 1, ThreadsPerWorker: 1})
	if err != nil {
		return err
	}
	const opPool, opDirect = 1, 2
	rootA := tr.start("replay.pool", rootLayer, opPool, 0)
	var poolDur time.Duration
	poolResults := make([][]cluster.Result, len(calls))
	cands := 0
	for i, c := range calls {
		ctx := context.Background()
		if c.hints != nil {
			ctx = cluster.WithParentHints(ctx, c.hints)
		}
		sp := tr.start("Pool.EvaluateAllContext", "cluster", opPool, rootA)
		t0 := time.Now()
		poolResults[i] = pl.EvaluateAllContext(ctx, c.seqs)
		poolDur += time.Since(t0)
		tr.end(sp)
		cands += len(c.seqs)
	}
	tr.end(rootA)

	rootB := tr.start("replay.direct", rootLayer, opDirect, 0)
	eng := direct.eng
	var batchDur, deltaDur, scoreDur time.Duration
	var batchN, deltaN, pairs, entries int
	prev := map[string]*pipe.Query{}
	scorer := eng.AcquireScorer()
	defer eng.ReleaseScorer(scorer)
	for i, c := range calls {
		queries := make([]*pipe.Query, len(c.seqs))
		var batchIdx, deltaIdx []int
		for k, s := range c.seqs {
			if parent, ok := c.hints[s.Residues()]; ok && prev[parent] != nil {
				deltaIdx = append(deltaIdx, k)
			} else {
				batchIdx = append(batchIdx, k)
			}
		}
		if len(batchIdx) > 0 {
			batch := make([]seq.Sequence, len(batchIdx))
			for j, k := range batchIdx {
				batch[j] = c.seqs[k]
			}
			sp := tr.start("Engine.NewQueryBatch", "pipe", opDirect, rootB)
			t0 := time.Now()
			built := eng.NewQueryBatch(batch, 1)
			batchDur += time.Since(t0)
			tr.end(sp)
			for j, k := range batchIdx {
				queries[k] = built[j]
			}
			batchN += len(batchIdx)
		}
		if len(deltaIdx) > 0 {
			sp := tr.start("Engine.NewQueryDelta", "pipe", opDirect, rootB)
			t0 := time.Now()
			for _, k := range deltaIdx {
				queries[k] = eng.NewQueryDelta(prev[c.hints[c.seqs[k].Residues()]], c.seqs[k], 1)
			}
			deltaDur += time.Since(t0)
			tr.end(sp)
			deltaN += len(deltaIdx)
		}
		if c.hints != nil {
			prev = make(map[string]*pipe.Query, len(c.seqs))
			for k, s := range c.seqs {
				prev[s.Residues()] = queries[k]
			}
		}
		scores := make([][]float64, len(queries))
		sp := tr.start("Scorer.Score", "pipe", opDirect, rootB)
		t0 := time.Now()
		for k, q := range queries {
			row := make([]float64, len(work))
			for j, id := range work {
				row[j] = scorer.Score(q, id)
			}
			scores[k] = row
		}
		scoreDur += time.Since(t0)
		tr.end(sp)
		pairs += len(queries) * len(work)
		for _, q := range queries {
			entries += q.Profile().NumEntries()
		}

		o.attempt()
		for k, row := range scores {
			r := poolResults[i][k]
			same := math.Float64bits(r.TargetScore) == math.Float64bits(row[0]) && len(r.NonTargetScores) == len(row)-1
			for j := 1; same && j < len(row); j++ {
				same = math.Float64bits(r.NonTargetScores[j-1]) == math.Float64bits(row[j])
			}
			if !same {
				o.fail("replay generation %d candidate %d: pool and direct pipe scores differ", i, k)
				break
			}
		}
	}
	tr.end(rootB)

	directDur := batchDur + deltaDur + scoreDur
	o.set("cluster.evalall_us_per_cand", ratio(us(poolDur), float64(cands)), cands)
	o.set("cluster.dispatch_self_us_per_cand", ratio(us(poolDur-directDur), float64(cands)), cands)
	o.set("pipe.preprocess_us_per_cand", ratio(us(batchDur), float64(batchN)), batchN)
	o.set("pipe.delta_us_per_cand", ratio(us(deltaDur), float64(deltaN)), deltaN)
	o.set("pipe.score_us_per_pair", ratio(us(scoreDur), float64(pairs)), pairs)
	o.set("pipe.profile_entries_per_query", ratio(float64(entries), float64(cands)), cands)
	return nil
}

// searchStepUSPerCand times search.New(...).Step() with a constant
// evaluator: the generation loop's own propose/select cost per
// candidate, with evaluation free.
func searchStepUSPerCand(shape designShape, seed int64) (float64, int, error) {
	flat := ga.EvaluatorFunc(func(seqs []seq.Sequence) []float64 {
		out := make([]float64, len(seqs))
		for i := range out {
			out[i] = 0.5
		}
		return out
	})
	sr, err := search.New(search.Config{}, shape.options(seed).GA, flat)
	if err != nil {
		return 0, 0, err
	}
	sr.InitPopulation()
	t0 := time.Now()
	for g := 0; g < shape.generations; g++ {
		sr.Step()
	}
	n := shape.population * shape.generations
	return us(time.Since(t0)) / float64(n), n, nil
}

// coldQueryLayers measures the uncached single-query path on qs: the
// similarity search alone (simindex), query preprocessing (pipe) and
// per-pair scoring, each called directly.
func coldQueryLayers(p *problem, qs []seq.Sequence, ids []int, o *outcome, tr *tracer) {
	ix := p.eng.Index()
	window := ix.Config().Window
	var searchDur, newQueryDur, scoreDur time.Duration
	var windows, pairs, entries int
	scorer := p.eng.AcquireScorer()
	defer p.eng.ReleaseScorer(scorer)
	for i, s := range qs {
		op := 1_000_000 + i
		root := tr.start("query.layers", rootLayer, op, 0)

		sp := tr.start("Index.SequenceSimilarity", "simindex", op, root)
		t0 := time.Now()
		prof := ix.SequenceSimilarity(s, 1)
		searchDur += time.Since(t0)
		tr.end(sp)
		windows += s.Len() - window + 1
		entries += prof.NumEntries()

		sp = tr.start("Engine.NewQuery", "pipe", op, root)
		t0 = time.Now()
		q := p.eng.NewQuery(s, 1)
		newQueryDur += time.Since(t0)
		tr.end(sp)

		sp = tr.start("Scorer.Score", "pipe", op, root)
		t0 = time.Now()
		for _, id := range ids {
			scorer.Score(q, id)
		}
		scoreDur += time.Since(t0)
		tr.end(sp)
		pairs += len(ids)
		tr.end(root)
	}
	o.set("simindex.search_us_per_window", ratio(us(searchDur), float64(windows)), windows)
	o.set("pipe.newquery_us", ratio(us(newQueryDur), float64(len(qs))), len(qs))
	o.set("pipe.score_us_per_pair", ratio(us(scoreDur), float64(pairs)), pairs)
	o.set("pipe.profile_entries_per_query", ratio(float64(entries), float64(len(qs))), len(qs))
}

// obsLayers replays a finished job's journal directory (written by the
// daemon) into a scratch journal: every record re-appended, its
// checkpoint reloaded and rewritten.
func obsLayers(jobDir, scratch string, o *outcome) error {
	recs, err := obs.ReadJournal(obs.JournalPath(jobDir))
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("journal %s is empty", jobDir)
	}
	t0 := time.Now()
	cp, err := obs.LoadCheckpoint(jobDir)
	if err != nil {
		return err
	}
	o.set("obs.load_checkpoint_ms", ms(time.Since(t0)), 1)

	j, err := obs.OpenJournal(scratch, obs.JournalOptions{})
	if err != nil {
		return err
	}
	const rounds = 20 // journal replays; one checkpoint rewrite per round
	var appendUS, checkpointMS []float64
	for r := 0; r < rounds; r++ {
		for _, rec := range recs {
			t0 := time.Now()
			if err := j.Append(rec); err != nil {
				j.Close()
				return err
			}
			appendUS = append(appendUS, us(time.Since(t0)))
		}
		t0 := time.Now()
		if err := j.WriteCheckpoint(cp); err != nil {
			j.Close()
			return err
		}
		checkpointMS = append(checkpointMS, ms(time.Since(t0)))
	}
	if err := j.Close(); err != nil {
		return err
	}
	jst, err := os.Stat(obs.JournalPath(scratch))
	if err != nil {
		return err
	}
	cst, err := os.Stat(obs.CheckpointPath(scratch))
	if err != nil {
		return err
	}
	o.set("obs.append_us_p50", median(appendUS), len(appendUS))
	o.set("obs.checkpoint_ms_p50", median(checkpointMS), len(checkpointMS))
	o.set("obs.bytes_per_record", float64(jst.Size())/float64(len(appendUS)), len(appendUS))
	o.set("obs.bytes_per_checkpoint", float64(cst.Size()), 1)
	return nil
}

// jobstoreLayers drives a scratch store through n jobs' full lifecycle
// with direct calls: Create all, then Claim/Renew/Get/Finish each, with
// the S40 request as spec and a real finished job's JSON as result.
func jobstoreLayers(dir string, n int, spec, result json.RawMessage, o *outcome) error {
	st, err := jobstore.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	const owner, lease = "bench", 15 * time.Second
	var create, claim, renew, get, finish, list []float64
	timed := func(dst *[]float64, fn func() error) error {
		t0 := time.Now()
		err := fn()
		*dst = append(*dst, ms(time.Since(t0)))
		return err
	}
	for i := 0; i < n; i++ {
		if err := timed(&create, func() error { _, err := st.Create("public", spec); return err }); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		var rec jobstore.Record
		err := timed(&claim, func() error {
			r, _, ok, err := st.Claim(owner, lease, nil)
			if err == nil && !ok {
				err = fmt.Errorf("jobstore: nothing to claim with %d of %d jobs pending", n-i, n)
			}
			rec = r
			return err
		})
		if err != nil {
			return err
		}
		if err := timed(&renew, func() error { _, err := st.Renew(rec.ID, owner, lease); return err }); err != nil {
			return err
		}
		if err := timed(&get, func() error { _, err := st.Get(rec.ID); return err }); err != nil {
			return err
		}
		if err := timed(&finish, func() error { _, err := st.Finish(rec.ID, owner, jobstore.Done, result, ""); return err }); err != nil {
			return err
		}
		if i%(n/10+1) == 0 {
			if err := timed(&list, func() error { _, err := st.List(); return err }); err != nil {
				return err
			}
		}
	}
	wal, err := os.Stat(filepath.Join(dir, "wal.jsonl"))
	if err != nil {
		return err
	}
	o.set("jobstore.create_ms_p50", median(create), len(create))
	o.set("jobstore.claim_ms_p50", median(claim), len(claim))
	o.set("jobstore.renew_ms_p50", median(renew), len(renew))
	o.set("jobstore.get_ms_p50", median(get), len(get))
	o.set("jobstore.finish_ms_p50", median(finish), len(finish))
	o.set("jobstore.list_ms_p50", median(list), len(list))
	o.set("jobstore.wal_bytes_per_job", float64(wal.Size())/float64(n), n)
	return nil
}
