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
// supplies content copied from the natural proteome, and only the rest
// is searched. nThreads bounds total parallelism (<= 0 means GOMAXPROCS).
// out[i] is bit-identical to NewQuery(seqs[i], ...).
func (e *Engine) NewQueryBatch(seqs []seq.Sequence, nThreads int) []*Query {
	if nThreads <= 0 {
		nThreads = runtime.GOMAXPROCS(0)
	}
	profiles := e.index.SequenceSimilarityBatch(seqs, nThreads, e.winTable)
	out := make([]*Query, len(seqs))
	workers := nThreads
	if workers > len(seqs) {
		workers = len(seqs)
	}
	if workers <= 1 {
		for i, s := range seqs {
			out[i] = e.newQueryFromProfile(s, profiles[i], false)
		}
		return out
	}
	var wg sync.WaitGroup
	for t := 0; t < workers; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			for i := t; i < len(seqs); i += workers {
				out[i] = e.newQueryFromProfile(seqs[i], profiles[i], false)
			}
		}(t)
	}
	wg.Wait()
	return out
}

// NewQueryDelta preprocesses child incrementally from its parent's
// query: an edit at position p invalidates only the <= w windows
// overlapping p, so only those are searched again. It is
// NewQueryDeltaCross without a second parent.
func (e *Engine) NewQueryDelta(parent *Query, child seq.Sequence, nThreads int) *Query {
	return e.NewQueryDeltaCross(parent, nil, child, nThreads)
}

// NewQueryDeltaCross preprocesses child incrementally from the queries
// of the parents it was bred from: every window unchanged against
// parent, or failing that against second, is lifted from that parent's
// profile, and the rest — the windows over a point mutation, the <= w-1
// straddling a crossover cut — are searched directly, past the window
// table. Exact for any same-length parents — a wrong parent costs
// searches, never accuracy. second may be nil; a nil parent is a plain
// build through the window table.
func (e *Engine) NewQueryDeltaCross(parent, second *Query, child seq.Sequence, nThreads int) *Query {
	if parent == nil {
		return e.newQueryFromProfile(child, e.index.SequenceSimilarityCached(child, nThreads, e.winTable), false)
	}
	parents := [2]simindex.DeltaParent{{Seq: parent.Seq, Prof: parent.prof}}
	n := 1
	if second != nil {
		parents[n] = simindex.DeltaParent{Seq: second.Seq, Prof: second.prof}
		n++
	}
	prof, lifted := e.index.SequenceSimilarityDelta(parents[:n], child, nThreads)
	e.deltaQueries.Add(1)
	e.deltaReused.Add(int64(lifted))
	return e.newQueryFromProfile(child, prof, false)
}

// DeltaParent wraps a sequence and its profile against this engine's
// index as a query that holds only what NewQueryDeltaCross reads of a
// parent. A netcluster worker makes one of a parent the master shipped
// (simindex.ParseWire has checked the profile by then). No scoring
// context is derived, so the result must never be scored.
func DeltaParent(p simindex.DeltaParent) *Query {
	return &Query{Seq: p.Seq, prof: p.Prof}
}

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
// incremental delta path and how many windows those builds lifted from
// either parent's profile instead of searching.
func (e *Engine) DeltaStats() (queries, reusedWindows int64) {
	return e.deltaQueries.Load(), e.deltaReused.Load()
}
