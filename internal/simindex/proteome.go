package simindex

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// mirrorHit is a hit recorded as seen from the other side: window g (the
// proteome-wide window ID) of a protein above the searched one scored
// score against some window of it. The searched protein is implied by
// the list the record sits in.
type mirrorHit struct {
	g, score int32
}

// ProteomeProfiles returns every indexed protein's profile against the
// proteome — out[p] is SequenceSimilarity(Protein(p), 1), bit for bit —
// built with nThreads workers (<= 0 means GOMAXPROCS): the proteome
// table (ProteomeTable) with every protein's profile assembled from it.
func (ix *Index) ProteomeProfiles(nThreads int) []FlatProfile {
	return ix.ProteomeTable(nThreads).Profiles(nThreads)
}

// ProteomeTable returns the window table of the indexed proteome — the
// search result of every window of every indexed protein — built with
// nThreads workers (<= 0 means GOMAXPROCS). It holds what
// NewWindowCache(ProteomeProfiles(n)) holds, without building the
// profiles first: WindowCache.Profile assembles one from it on demand.
//
// A per-protein loop finds every similar window pair twice, once from
// each side. The search is symmetric: window (p, i) is a seeded
// candidate of (q, j) exactly when (q, j) is one of (p, i), since the
// two share a reduced k-mer at the same offset, and the substitution
// matrix is symmetric (submat panics on one that is not), so the pair
// scores one number either way round. Here protein p's windows are
// searched, in runs, only against proteins q >= p (against p itself in
// full, both directions), and every hit on a q > p is also recorded as
// seen from q: window j of q, protein p, the same score, folded to the
// best per (q, j, p) as it arrives. A window's list is then its mirrored
// entries (proteins below its own, ascending) followed by its own search
// (its protein and above, ascending) — the list a fresh search of the
// window returns — and those lists, laid out in one arena, are the
// table. Proteins are claimed in ascending order, so the largest
// searches go first.
func (ix *Index) ProteomeTable(nThreads int) *WindowCache {
	if nThreads <= 0 {
		nThreads = runtime.GOMAXPROCS(0)
	}
	np, base := len(ix.proteins), ix.winBase
	// offs[g+1] is window g's entry count: its own hits, written by the
	// worker that searches its protein, then its mirrored ones.
	offs := make([]int32, ix.totalWins+1)
	own := make([][]WinScore, np)     // own[p]: p's folded hits, window by window
	mirror := make([][]mirrorHit, np) // mirror[p]: p's hits on proteins above it
	claimEach(np, nThreads, func(next func() (int, bool)) {
		s := ix.getSearcher(false)
		defer ix.putSearcher(s)
		var ownBuf []WinScore
		var mirBuf []mirrorHit
		// mslot is a sparse set over window IDs, as winSearcher.slot is
		// over diagonals: g is in mirBuf iff mirBuf[mslot[g]].g == g.
		mslot := make([]int32, ix.totalWins)
		for p, ok := next(); ok; p, ok = next() {
			b, nw := int(base[p]), int(base[p+1]-base[p])
			qidx, res := ix.indices[p], ix.proteins[p].Residues()
			ownBuf, mirBuf = ownBuf[:0], mirBuf[:0]
			for lo := 0; lo < nw; lo += maxRun {
				s.seededHits(qidx, res, lo, min(maxRun, nw-lo), int32(p))
				// s.hits is sorted by (window, protein): fold it to the best
				// per protein for the run's windows, as searchRun does, and
				// the hits on proteins above p to the best per target window.
				last := runHit{t: -1}
				for _, h := range s.hits {
					if h.t == last.t && h.protein == last.protein {
						ownBuf[len(ownBuf)-1].Score = max(ownBuf[len(ownBuf)-1].Score, h.score)
					} else {
						ownBuf = append(ownBuf, WinScore{Protein: h.protein, Score: h.score})
						offs[b+lo+int(h.t)+1]++
					}
					last = h
					if h.protein == int32(p) {
						continue
					}
					g := base[h.protein] + h.pos
					if i := mslot[g]; int(i) < len(mirBuf) && mirBuf[i].g == g {
						mirBuf[i].score = max(mirBuf[i].score, h.score)
					} else {
						mslot[g] = int32(len(mirBuf))
						mirBuf = append(mirBuf, mirrorHit{g: g, score: h.score})
					}
				}
			}
			own[p], mirror[p] = slices.Clone(ownBuf), slices.Clone(mirBuf)
		}
	})

	// Lay every window's list out in one arena. Filling protein by
	// protein in ascending order puts the mirrored entries of a window
	// (all from proteins below its own) in place before its own search's,
	// so what is left of the window's range is exactly room for those.
	for _, ms := range mirror {
		for _, m := range ms {
			offs[m.g+1]++
		}
	}
	for g := 0; g < ix.totalWins; g++ {
		offs[g+1] += offs[g]
	}
	lists := make([]WinScore, offs[ix.totalWins])
	cur := slices.Clone(offs[:ix.totalWins])
	for p := range own {
		k := 0
		for g := base[p]; g < base[p+1]; g++ {
			k += copy(lists[cur[g]:offs[g+1]], own[p][k:])
		}
		for _, m := range mirror[p] {
			lists[cur[m.g]] = WinScore{Protein: int32(p), Score: m.score}
			cur[m.g]++
		}
		own[p], mirror[p] = nil, nil
	}
	return ix.newWindowCache(offs, lists)
}

// claimEach runs worker on up to workers goroutines (at most one per
// index) and waits for them. Each worker takes indices off next, which
// hands out 0..n-1 once each in ascending order, until it reports false.
func claimEach(n, workers int, worker func(next func() (int, bool))) {
	var ctr atomic.Int64
	next := func() (int, bool) {
		i := int(ctr.Add(1)) - 1
		return i, i < n
	}
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker(next)
		}()
	}
	wg.Wait()
}
