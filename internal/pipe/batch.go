package pipe

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/seq"
	"repro/internal/simindex"
)

// This file is the generation-aware batch scoring path. GA populations
// are massively redundant — exact copies, point mutants sharing all but
// <= w windows per edit with their parent, crossover children sharing
// both parents' windows — and the window search is a pure function of
// window content, so the batch path removes the redundancy without
// touching a float: profiles produced here are bit-identical to the
// sequential NewQuery path (asserted by the golden batch suite).

// NewQueryBatch preprocesses a whole generation at once: identical
// window content is searched once per batch, the engine's window table
// supplies content copied from the natural proteome (searching it once
// per engine, on first touch), and only the rest is searched. nThreads
// bounds total parallelism (<= 0 means GOMAXPROCS). out[i] is
// bit-identical to NewQuery(seqs[i], ...). It is the ungated
// NewQueryBatchGated.
func (e *Engine) NewQueryBatch(seqs []seq.Sequence, nThreads int) []*Query {
	return e.NewQueryBatchGated(seqs, nThreads, nil)
}

// NewQueryBatchGated is NewQueryBatch with a target's reach gate
// (ReachGate) or nil. With it, a candidate that cannot score above 0
// against the target comes back partial (see Query.Partial), its
// windows no natural protein has searched in reach proteins only; a
// live candidate's query is the one an ungated call builds. The window
// table fills and counts as it does without the gate.
func (e *Engine) NewQueryBatchGated(seqs []seq.Sequence, nThreads int, gate *simindex.ReachGate) []*Query {
	if nThreads <= 0 {
		nThreads = runtime.GOMAXPROCS(0)
	}
	profiles, dead := e.index.SequenceSimilarityBatch(seqs, nThreads, e.winTable, gate)
	out := make([]*Query, len(seqs))
	build := func(i int) {
		if dead != nil && dead[i] {
			out[i] = &Query{Seq: seqs[i], prof: profiles[i], partial: true}
		} else {
			out[i] = e.newQueryFromProfile(seqs[i], profiles[i], false)
		}
	}
	workers := nThreads
	if workers > len(seqs) {
		workers = len(seqs)
	}
	if workers <= 1 {
		for i := range seqs {
			build(i)
		}
		return out
	}
	var wg sync.WaitGroup
	for t := 0; t < workers; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			for i := t; i < len(seqs); i += workers {
				build(i)
			}
		}(t)
	}
	wg.Wait()
	return out
}

// NewQueryDelta preprocesses child incrementally from its parent's
// query: an edit at position p invalidates only the <= w windows
// overlapping p, so only those are searched again. It is the ungated
// NewQueryDeltaCross without a second parent.
func (e *Engine) NewQueryDelta(parent *Query, child seq.Sequence, nThreads int) *Query {
	return e.NewQueryDeltaCross(parent, nil, child, nThreads, nil)
}

// NewQueryDeltaCross preprocesses child incrementally from the queries
// of the parents it was bred from: every window unchanged against
// parent, or failing that against second, is lifted from that parent's
// profile, and the rest — the windows over a point mutation, the <= w-1
// straddling a crossover cut — are searched directly, past the window
// table. Exact for any same-length parents — a wrong parent costs
// searches, never accuracy. second may be nil; a nil parent is a plain
// build through the window table.
//
// gate is a target's reach gate (ReachGate) or nil. With it, a child
// that cannot score above 0 against the target comes back partial (see
// Query.Partial) after a search of the reach proteins only; a live
// child's query is the one an ungated call builds, what a partial parent
// lent it read from the window table where the table holds it. An
// ungated call treats a partial parent as absent.
func (e *Engine) NewQueryDeltaCross(parent, second *Query, child seq.Sequence, nThreads int, gate *simindex.ReachGate) *Query {
	if gate == nil && second != nil && second.partial {
		second = nil
	}
	if gate == nil && parent != nil && parent.partial {
		parent, second = second, nil
	}
	if parent == nil {
		return e.newQueryFromProfile(child, e.index.SequenceSimilarityCached(child, nThreads, e.winTable), false)
	}
	parents := [2]simindex.DeltaParent{parent.deltaParent()}
	n := 1
	if second != nil {
		parents[n] = second.deltaParent()
		n++
	}
	prof, lifted, partial := e.index.SequenceSimilarityDelta(parents[:n], child, nThreads, gate, e.winTable)
	e.deltaQueries.Add(1)
	e.deltaReused.Add(int64(lifted))
	if partial {
		return &Query{Seq: child, prof: prof, partial: true}
	}
	return e.newQueryFromProfile(child, prof, false)
}

func (q *Query) deltaParent() simindex.DeltaParent {
	return simindex.DeltaParent{Seq: q.Seq, Prof: q.prof, Partial: q.partial}
}

// DeltaParent wraps a sequence and its profile against this engine's
// index as a query that holds only what NewQueryDeltaCross reads of a
// parent. A netcluster worker makes one of a parent the master shipped
// (simindex.ParseWire has checked the profile by then). No scoring
// context is derived, so the result must never be scored.
func DeltaParent(p simindex.DeltaParent) *Query {
	return &Query{Seq: p.Seq, prof: p.Prof, partial: p.Partial}
}

// ReachGate returns the reach gate of natural protein id as a target
// (see simindex.ReachGate): the proteins with a graph neighbour that
// has an eligible column in id's database entry, and MinEvidence. It is
// built with the entry and shared by every caller.
func (e *Engine) ReachGate(id int) *simindex.ReachGate { return e.DBQuery(id).gate }

// ScoreBatch computes PIPE(seqs[i], ids[j]) for the whole generation:
// batched preprocessing (NewQueryBatch) followed by the per-pair
// scoring loop across nThreads workers. out[i][j] is bit-identical to
// the sequential NewQuery+Score path for the same pair.
func (e *Engine) ScoreBatch(seqs []seq.Sequence, ids []int, nThreads int) [][]float64 {
	if nThreads <= 0 {
		nThreads = runtime.GOMAXPROCS(0)
	}
	return e.ScoreQueries(e.NewQueryBatch(seqs, nThreads), ids, nThreads)
}

// ScoreQueries is the engine's one scoring loop: PIPE(queries[i],
// ids[j]) for prebuilt queries, work-sharing the flattened (query, id)
// task space across at most nThreads goroutines (at most one per task;
// scorers come from the engine's reuse pool).
func (e *Engine) ScoreQueries(queries []*Query, ids []int, nThreads int) [][]float64 {
	out := make([][]float64, len(queries))
	for i := range out {
		out[i] = make([]float64, len(ids))
	}
	total := len(queries) * len(ids)
	if total == 0 {
		return out
	}
	if nThreads > total {
		nThreads = total
	}
	if nThreads <= 1 {
		scorer := e.AcquireScorer()
		defer e.ReleaseScorer(scorer)
		for i, q := range queries {
			for j, id := range ids {
				out[i][j] = scorer.Score(q, id)
			}
		}
		return out
	}
	var next int64
	var wg sync.WaitGroup
	for t := 0; t < nThreads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scorer := e.AcquireScorer()
			defer e.ReleaseScorer(scorer)
			for {
				k := int(atomic.AddInt64(&next, 1)) - 1
				if k >= total {
					return
				}
				out[k/len(ids)][k%len(ids)] = scorer.Score(queries[k/len(ids)], ids[k%len(ids)])
			}
		}()
	}
	wg.Wait()
	return out
}

// WindowCacheStats snapshots the counters and size of the engine's
// window table.
func (e *Engine) WindowCacheStats() simindex.WindowCacheStats {
	return e.winTable.Stats()
}

// DeltaStats reports how many queries were built through the
// incremental delta path and how many windows those builds did not
// search: lifted from either parent's profile, or read from the window
// table where a partial parent lent them.
func (e *Engine) DeltaStats() (queries, reusedWindows int64) {
	return e.deltaQueries.Load(), e.deltaReused.Load()
}
