package cluster

import (
	"context"
	"maps"
	"time"

	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/seq"
	"repro/internal/simindex"
)

// Parent hints travel by residue content, not by slot position: the GA
// reports ancestry as child->parent sequence pairs, and the pool keys
// retained parent queries the same way. Content addressing keeps the
// hints valid through any reordering or subsetting a middleware chain
// performs (fitness-cache miss filtering) — a subset of candidates still
// looks its parents up by its own residues.

type parentHintsKey struct{}

// WithParentHints attaches generation ancestry to a context: a map from
// a candidate's residue string to its primary parent's residue string
// (from the previous, already evaluated generation). An empty non-nil
// map is meaningful — it announces that generation-aware evaluation is
// active, so the pool retains this generation's queries as potential
// delta parents for the next call.
func WithParentHints(ctx context.Context, hints map[string]string) context.Context {
	return context.WithValue(ctx, parentHintsKey{}, hints)
}

// ParentHintsFrom extracts ancestry attached by WithParentHints.
func ParentHintsFrom(ctx context.Context) (map[string]string, bool) {
	h, ok := ctx.Value(parentHintsKey{}).(map[string]string)
	return h, ok
}

type secondParentsKey struct{}

// WithSecondParents attaches the other half of a crossover's ancestry:
// a map from a candidate's residue string to the residue string of the
// parent that contributed its tail, beside the primary parent
// WithParentHints names. Candidates with one parent are absent. The map
// only ever saves searches; generation-aware evaluation is announced by
// WithParentHints alone.
func WithSecondParents(ctx context.Context, second map[string]string) context.Context {
	return context.WithValue(ctx, secondParentsKey{}, second)
}

// SecondParentsFrom extracts ancestry attached by WithSecondParents.
func SecondParentsFrom(ctx context.Context) map[string]string {
	second, _ := ctx.Value(secondParentsKey{}).(map[string]string)
	return second
}

type roundKey struct{}

// WithRound numbers the generation a call belongs to, for callers that
// evaluate one generation in several calls (a netcluster worker gets it
// chunk by chunk): calls carrying the same round accumulate into one
// generation, and the retained queries rotate to parents only when the
// round changes. Without it every call is its own generation.
func WithRound(ctx context.Context, round int64) context.Context {
	return context.WithValue(ctx, roundKey{}, round)
}

type targetFirstKey struct{}

// WithTargetFirst marks a call as target-first: the pool then returns a
// target-only Result (see Result) for a candidate whose target score is
// exactly 0 instead of scoring its non-targets. Only a caller that needs
// nothing but fitness may set it.
func WithTargetFirst(ctx context.Context) context.Context {
	return context.WithValue(ctx, targetFirstKey{}, true)
}

// TargetFirstFrom reports whether ctx carries the WithTargetFirst mark.
func TargetFirstFrom(ctx context.Context) bool {
	return ctx.Value(targetFirstKey{}) != nil
}

type shippedParentsKey struct{}

// WithShippedParents hands a generation-aware call parents the pool may
// not retain, as sequence and profile (a netcluster master ships them
// with a chunk leased away from the worker that evaluated them). They
// join the previous generation for the rest of the round — a parent the
// pool already retains is left as it is — and are dropped with it.
func WithShippedParents(ctx context.Context, parents []simindex.DeltaParent) context.Context {
	return context.WithValue(ctx, shippedParentsKey{}, parents)
}

// EvaluateAllContext is EvaluateAll with generation context. Candidates
// with a parent's query retained from the previous generation are
// preprocessed incrementally (only the windows neither parent has are
// searched); the rest go through the engine's batched preprocessing,
// which dedups identical window content across the call and looks
// natural windows up in the engine's window table. Scores are bit-identical to the sequential path. When
// hints are attached (even empty), the evaluated queries are retained
// as delta parents for the next generation — and so is every hinted
// member of this generation whose query is already retained, evaluated
// here or not: a copy the caller's fitness cache answered is still the
// parent of next generation's children. Retention is therefore the
// hinted generation and the one before it, never more.
func (p *Pool) EvaluateAllContext(ctx context.Context, seqs []seq.Sequence) []Result {
	hints, genAware := ParentHintsFrom(ctx)
	second := SecondParentsFrom(ctx)

	var prev map[string]*pipe.Query
	if genAware {
		round, chunked := ctx.Value(roundKey{}).(int64)
		p.mu.Lock()
		if !chunked || round != p.round || p.current == nil {
			p.parents, p.current = p.current, make(map[string]*pipe.Query, max(len(hints), len(seqs)))
			p.round = round
			for member := range hints {
				if q, ok := p.parents[member]; ok {
					p.current[member] = q
				}
			}
		}
		if shipped, _ := ctx.Value(shippedParentsKey{}).([]simindex.DeltaParent); len(shipped) > 0 {
			// Calls of this round that are already running read the map they
			// found, so the shipped parents go into a copy.
			grown := make(map[string]*pipe.Query, len(p.parents)+len(shipped))
			maps.Copy(grown, p.parents)
			for _, parent := range shipped {
				if res := parent.Seq.Residues(); grown[res] == nil {
					grown[res] = pipe.DeltaParent(parent)
				}
			}
			p.parents = grown
		}
		prev = p.parents
		p.mu.Unlock()
	}

	// Partition: delta candidates have a retained parent query; the rest
	// are batch-preprocessed together. A candidate whose primary parent
	// is gone (a netcluster worker sees only its own chunks) deltas from
	// the second alone.
	queries := make([]*pipe.Query, len(seqs))
	type lineage struct{ parent, second *pipe.Query }
	var deltaIdx, batchIdx []int
	var deltaFrom []lineage
	for i, s := range seqs {
		res := s.Residues()
		l := lineage{prev[hints[res]], prev[second[res]]}
		if l.parent == nil {
			l = lineage{parent: l.second}
		}
		if l.parent != nil {
			deltaIdx = append(deltaIdx, i)
			deltaFrom = append(deltaFrom, l)
		} else {
			batchIdx = append(batchIdx, i)
		}
	}
	totalThreads := p.cfg.Workers * p.cfg.ThreadsPerWorker
	// A target-first call needs nothing of a candidate that scores 0
	// against the target, so its batch and delta builds stop once a
	// candidate provably does: they come back partial and are answered
	// target-only.
	targetFirst := TargetFirstFrom(ctx)
	var gate *simindex.ReachGate
	if targetFirst && len(p.nonTargetIDs) > 0 {
		gate = p.engine.ReachGate(p.targetID)
	}

	if len(batchIdx) > 0 {
		batchSeqs := make([]seq.Sequence, len(batchIdx))
		for k, i := range batchIdx {
			batchSeqs[k] = seqs[i]
		}
		built := p.engine.NewQueryBatchGated(batchSeqs, totalThreads, gate)
		for k, i := range batchIdx {
			queries[i] = built[k]
		}
	}
	forEach(p.cfg.Workers, len(deltaIdx), func(_, k int) {
		i, l := deltaIdx[k], deltaFrom[k]
		queries[i] = p.engine.NewQueryDeltaCross(l.parent, l.second, seqs[i], p.cfg.ThreadsPerWorker, gate)
	})

	if genAware {
		p.mu.Lock()
		for i, s := range seqs {
			p.current[s.Residues()] = queries[i]
		}
		p.mu.Unlock()
	}

	return p.scorePrebuilt(seqs, queries, targetFirst)
}

// Retained returns the query of a member of the generation being
// evaluated — a candidate of a generation-aware call, or a survivor
// carried into it — or nil when the pool does not hold one. The query
// may be partial (pipe.Query.Partial): a target-first call retains its
// dead candidates' partial queries as delta parents.
func (p *Pool) Retained(residues string) *pipe.Query {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.current[residues]
}

// Rescore returns a candidate's full Result — what a call without the
// target-first mark returns — for a consumer that needs the non-target
// scores of a candidate it got back target-only. It scores the query
// the pool retains for the candidate (see Retained) and preprocesses the
// candidate afresh when there is none or it is partial; both give the
// same bits.
func (p *Pool) Rescore(s seq.Sequence) Result {
	q := p.Retained(s.Residues())
	if q == nil || q.Partial() {
		q = p.engine.NewQuery(s, p.cfg.ThreadsPerWorker)
	}
	return p.scoreQuery(q, false)
}

// scorePrebuilt runs the on-demand per-candidate scoring loop of
// Algorithm 1 over already-preprocessed queries. With batched
// preprocessing the StageEvalTask histogram observes the scoring span
// of each candidate (preprocessing is amortized across the generation).
func (p *Pool) scorePrebuilt(seqs []seq.Sequence, queries []*pipe.Query, targetFirst bool) []Result {
	results := make([]Result, len(seqs))
	forEach(p.cfg.Workers, len(seqs), func(_, i int) {
		t0 := time.Now()
		res := p.scoreQuery(queries[i], targetFirst)
		res.Index = i
		results[i] = res
		p.cfg.Metrics.Observe(obs.StageEvalTask, time.Since(t0))
	})
	return results
}

// scoreQuery scores one prebuilt query against the target, then against
// the non-targets with the worker's computational threads (Algorithm
// 2's inner loop). A target-first call stops after a target score of
// exactly 0 and returns a target-only Result, and a partial query, which
// only a target-first call builds, scores exactly 0 against the target
// without being scored.
func (p *Pool) scoreQuery(query *pipe.Query, targetFirst bool) Result {
	if query.Partial() {
		return Result{TargetOnly: true}
	}
	scorer := p.engine.AcquireScorer()
	target := scorer.Score(query, p.targetID)
	p.engine.ReleaseScorer(scorer)
	if target == 0 && targetFirst && len(p.nonTargetIDs) > 0 {
		return Result{TargetOnly: true}
	}
	nts := p.engine.ScoreQueries([]*pipe.Query{query}, p.nonTargetIDs, p.cfg.ThreadsPerWorker)[0]
	return Result{TargetScore: target, NonTargetScores: nts}
}
