package simindex

import (
	"runtime"
	"slices"
	"sync"

	"repro/internal/seq"
	"repro/internal/submat"
)

// This file is the batched, cache-aware preprocessing path. The search
// for one window is a pure function of its w residues, so results are
// shared three ways without approximation: across the windows of one
// generation (SequenceSimilarityBatch dedups identical window content
// before searching), across generations (WindowCache keys on content),
// and between a GA child and its parent (SequenceSimilarityDelta reuses
// every window the mutation did not touch). Profiles are assembled from
// per-window aggregated hit lists in ascending window order, which
// reproduces mergeFlat's CSR output exactly — rows in ascending protein
// order, positions ascending within a row, best score per entry — so
// the float accumulation downstream (pipe.newQueryFromProfile) sees
// bit-identical input no matter which path built the profile.

// arenaChunk sizes the winSearcher's write-once result arena. Results
// are appended chunk by chunk and never moved, so slices handed out
// (and stored in the WindowCache) stay valid without a copy per window.
const arenaChunk = 4096

// winSearcher holds one worker's reusable search scratch. Not safe for
// concurrent use; check one out per goroutine with getSearcher and
// return it with putSearcher so the stamp array and arena amortize
// across calls.
type winSearcher struct {
	ix    *Index
	brute bool
	stamp []uint32 // per-global-window dedup stamps, valid when == epoch
	epoch uint32
	qrows []*[seq.NumAminoAcids]int8
	hits  []Hit
	agg   []WinScore
	arena []WinScore // current write-once chunk; stash slices alias it
}

// getSearcher checks a searcher out of the index's pool (allocating on
// first use). Arena slices previously handed out stay valid: the arena
// is write-once, so reuse only ever appends to fresh capacity.
func (ix *Index) getSearcher(brute bool) *winSearcher {
	if v := ix.searchers.Get(); v != nil {
		s := v.(*winSearcher)
		s.brute = brute
		return s
	}
	return &winSearcher{ix: ix, brute: brute}
}

func (ix *Index) putSearcher(s *winSearcher) { ix.searchers.Put(s) }

// simScratch holds the per-call working set of the batch, cached, and
// delta profile builds: dedup tables, per-window pointer vectors, CSR
// expansion buffers, and a serial assembler. One profile build per
// generation member churned through fresh copies of all of these; a GA
// run makes tens of thousands of such calls against the same index, so
// the scratch is pooled on the index and every field reused at its
// high-water capacity. Everything in here is dead the moment the call
// returns — outputs are always freshly assembled CSR profiles.
type simScratch struct {
	uniq     map[string]int32
	keys     []string
	firstQ   []int32
	firstPos []int32
	missing  []int32
	wiArena  []int32
	winIdx   [][]int32
	vals     [][]WinScore
	perWin   [][]WinScore
	stale    []bool
	counts   []int32
	offs     []int32
	buf      []WinScore
	asm      *assembler
}

func (ix *Index) getScratch() *simScratch {
	if v := ix.scratch.Get(); v != nil {
		return v.(*simScratch)
	}
	return &simScratch{
		uniq: make(map[string]int32),
		asm:  newAssembler(len(ix.proteins)),
	}
}

func (ix *Index) putScratch(sc *simScratch) { ix.scratch.Put(sc) }

// searchWindow returns the aggregated hit list of the query window at
// qpos — one WinScore per similar proteome protein, best score, sorted
// by protein ID. win must be the window's residue substring
// (query residues are canonical upper case, so it equals the letters of
// qidx[qpos:qpos+w]). The returned slice is write-once arena storage:
// stable for the searcher's lifetime and safe to retain or cache, but
// never to mutate.
func (s *winSearcher) searchWindow(qidx []int8, qpos int, win string) []WinScore {
	ix := s.ix
	w := ix.cfg.Window
	hits := s.hits[:0]
	if s.brute {
		for p, target := range ix.indices {
			for start := 0; start+w <= len(target); start++ {
				if score := ix.cfg.Matrix.WindowScoreIdx(qidx, qpos, target, start, w); score >= ix.cfg.Threshold {
					hits = append(hits, Hit{Protein: int32(p), Pos: int32(start), Score: int32(score)})
				}
			}
		}
	} else {
		k := ix.cfg.SeedLen
		// Dedup seed candidates with an epoch-stamped array indexed by
		// global window ID: one load + store per candidate, no hashing,
		// no clear between windows (bumping the epoch invalidates every
		// stamp at once). Duplicate suppression here is purely a speed
		// matter — the best-per-protein fold below absorbs repeats — but
		// skipping the repeated exact verification is the point.
		if s.stamp == nil {
			s.stamp = make([]uint32, ix.totalWins)
		}
		s.epoch++
		if s.epoch == 0 { // uint32 wrap: stamps from 4G calls ago are garbage
			clear(s.stamp)
			s.epoch = 1
		}
		stamp, epoch := s.stamp, s.epoch
		thr := ix.cfg.Threshold
		flat, protOff, winBase := ix.flatIdx, ix.protOff, ix.winBase
		// Pre-fetch the score-table row of each query-window residue:
		// the verify loop then indexes once per position.
		if cap(s.qrows) < w {
			s.qrows = make([]*[seq.NumAminoAcids]int8, w)
		}
		qrows := s.qrows[:w]
		ix.cfg.Matrix.WindowRowsInto(qrows, qidx, qpos, w)
		for off := 0; off+k <= w; off++ {
			key, ok := ix.cfg.Reduced.ReduceKmer(win, off, k)
			if !ok {
				continue
			}
			for _, ref := range ix.refs(key) {
				start := int(ref.Pos) - off
				if start < 0 {
					continue
				}
				// gid < winBase[p+1] is exactly start+w <= protein length:
				// one prefix-sum load instead of the protein's slice header.
				gid := winBase[ref.Protein] + int32(start)
				if gid >= winBase[ref.Protein+1] {
					continue
				}
				if stamp[gid] == epoch {
					continue
				}
				stamp[gid] = epoch
				if score := submat.WindowScoreRows(qrows, flat, int(protOff[ref.Protein])+start, w); score >= thr {
					hits = append(hits, Hit{Protein: ref.Protein, Pos: int32(start), Score: int32(score)})
				}
			}
		}
	}
	s.hits = hits
	if len(hits) == 0 {
		return nil
	}
	if !s.brute {
		// Seeded hits arrive in discovery order; sort the (small)
		// surviving list so the fold sees a protein-ascending stream.
		// Brute hits are already ordered by the proteome scan. The max
		// fold itself is order-independent (int32 max is exact).
		slices.SortFunc(hits, func(a, b Hit) int {
			if a.Protein != b.Protein {
				return int(a.Protein - b.Protein)
			}
			return int(a.Pos - b.Pos)
		})
	}
	agg := s.agg[:0]
	for _, h := range hits {
		if n := len(agg); n > 0 && agg[n-1].Protein == h.Protein {
			if h.Score > agg[n-1].Score {
				agg[n-1].Score = h.Score
			}
		} else {
			agg = append(agg, WinScore{Protein: h.Protein, Score: h.Score})
		}
	}
	s.agg = agg
	return s.stash(agg)
}

// stash copies agg into the searcher's write-once arena and returns the
// stable slice.
func (s *winSearcher) stash(agg []WinScore) []WinScore {
	if cap(s.arena)-len(s.arena) < len(agg) {
		size := arenaChunk
		if size < len(agg) {
			size = len(agg)
		}
		s.arena = make([]WinScore, 0, size)
	}
	start := len(s.arena)
	s.arena = append(s.arena, agg...)
	return s.arena[start:len(s.arena):len(s.arena)]
}

// assembler holds reusable scratch for CSR assembly over a fixed
// proteome size. Not safe for concurrent use.
type assembler struct {
	rowOf  []int32 // protein -> row index + 1; 0 = unseen (reset after use)
	counts []int32 // per-protein entry count (reset after use)
	ids    []int32
	cursor []int32
}

func newAssembler(numProteins int) *assembler {
	return &assembler{rowOf: make([]int32, numProteins), counts: make([]int32, numProteins)}
}

// assemble builds the CSR profile from per-window aggregated hit lists
// (win(i) for window i, protein-ascending, best score per protein).
// Appending rows in ascending window order makes positions ascend
// within each row, and the sorted ID pass makes rows protein-ascending:
// exactly mergeFlat's output for the same underlying hits.
func (a *assembler) assemble(nw int, win func(int) []WinScore) FlatProfile {
	ids := a.ids[:0]
	total := 0
	for i := 0; i < nw; i++ {
		for _, ws := range win(i) {
			if a.rowOf[ws.Protein] == 0 {
				a.rowOf[ws.Protein] = 1
				ids = append(ids, ws.Protein)
			}
			a.counts[ws.Protein]++
			total++
		}
	}
	slices.Sort(ids)
	fp := FlatProfile{
		IDs:     make([]int32, len(ids)),
		Offsets: make([]int32, len(ids)+1),
		Pos:     make([]int32, total),
		Score:   make([]int32, total),
	}
	copy(fp.IDs, ids)
	if cap(a.cursor) < len(ids) {
		a.cursor = make([]int32, len(ids))
	}
	cursor := a.cursor[:len(ids)]
	acc := int32(0)
	for r, id := range ids {
		fp.Offsets[r] = acc
		acc += a.counts[id]
		a.rowOf[id] = int32(r) + 1
		cursor[r] = 0
	}
	fp.Offsets[len(ids)] = acc
	for i := 0; i < nw; i++ {
		for _, ws := range win(i) {
			r := a.rowOf[ws.Protein] - 1
			fp.Pos[fp.Offsets[r]+cursor[r]] = int32(i)
			fp.Score[fp.Offsets[r]+cursor[r]] = ws.Score
			cursor[r]++
		}
	}
	for _, id := range ids {
		a.rowOf[id] = 0
		a.counts[id] = 0
	}
	a.ids = ids[:0]
	return fp
}

// searchWindowsInto searches the listed window positions of query with
// nThreads workers, storing each aggregated result in perWin and
// mirroring it into the cache (nil-safe).
func (ix *Index) searchWindowsInto(query seq.Sequence, wins []int32, perWin [][]WinScore, nThreads int, brute bool, cache *WindowCache) {
	if len(wins) == 0 {
		return
	}
	w := ix.cfg.Window
	res := query.Residues()
	qidx := query.Indices()
	if nThreads > len(wins) {
		nThreads = len(wins)
	}
	if nThreads <= 1 {
		s := ix.getSearcher(brute)
		for _, i := range wins {
			out := s.searchWindow(qidx, int(i), res[i:int(i)+w])
			perWin[i] = out
			cache.Put(res[i:int(i)+w], out)
		}
		ix.putSearcher(s)
		return
	}
	var wg sync.WaitGroup
	for t := 0; t < nThreads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			s := ix.getSearcher(brute)
			for j := t; j < len(wins); j += nThreads {
				i := wins[j]
				out := s.searchWindow(qidx, int(i), res[i:int(i)+w])
				perWin[i] = out
				cache.Put(res[i:int(i)+w], out)
			}
			ix.putSearcher(s)
		}(t)
	}
	wg.Wait()
}

// sequenceSimilarityAgg is the aggregated-path profile build shared by
// the plain, brute, and cached entry points.
func (ix *Index) sequenceSimilarityAgg(query seq.Sequence, nThreads int, brute bool, cache *WindowCache) FlatProfile {
	w := ix.cfg.Window
	nw := query.NumWindows(w)
	if nw <= 0 {
		return FlatProfile{Offsets: []int32{0}}
	}
	if nThreads <= 0 {
		nThreads = runtime.GOMAXPROCS(0)
	}
	res := query.Residues()
	sc := ix.getScratch()
	if cap(sc.perWin) < nw {
		sc.perWin = make([][]WinScore, nw)
	}
	perWin := sc.perWin[:nw]
	missing := sc.missing[:0]
	cache.observeBatch(nw)
	for i := 0; i < nw; i++ {
		if v, ok := cache.Get(res[i : i+w]); ok {
			perWin[i] = v
		} else {
			missing = append(missing, int32(i))
		}
	}
	ix.searchWindowsInto(query, missing, perWin, nThreads, brute, cache)
	out := sc.asm.assemble(nw, func(i int) []WinScore { return perWin[i] })
	sc.missing = missing[:0]
	ix.putScratch(sc)
	return out
}

// SequenceSimilarityCached is SequenceSimilarity backed by a shared
// window cache: windows whose content is cached skip the search, and
// fresh results are inserted for future queries. Output is
// bit-identical to the uncached path for any cache state. A nil cache
// degrades to a plain build.
func (ix *Index) SequenceSimilarityCached(query seq.Sequence, nThreads int, cache *WindowCache) FlatProfile {
	return ix.sequenceSimilarityAgg(query, nThreads, false, cache)
}

// SequenceSimilarityBatch computes the profiles of a whole generation
// at once: identical window content is searched once per batch (GA
// populations share most of their windows between siblings and exact
// copies), remaining lookups go through the cache, and only the residue
// content never seen before is searched. Profiles are assembled
// per-query through the same sorted CSR emission as the sequential
// path, so out[i] is bit-identical to SequenceSimilarity(queries[i]).
// nThreads bounds total worker parallelism (<= 0 means GOMAXPROCS); a
// nil cache still gets full in-batch deduplication.
func (ix *Index) SequenceSimilarityBatch(queries []seq.Sequence, nThreads int, cache *WindowCache) []FlatProfile {
	out := make([]FlatProfile, len(queries))
	if len(queries) == 0 {
		return out
	}
	if nThreads <= 0 {
		nThreads = runtime.GOMAXPROCS(0)
	}
	w := ix.cfg.Window
	sc := ix.getScratch()

	// Dedup window content across the whole batch.
	clear(sc.uniq)
	uniq := sc.uniq
	keys := sc.keys[:0]
	firstQ, firstPos := sc.firstQ[:0], sc.firstPos[:0] // an occurrence of each unique window
	if cap(sc.winIdx) < len(queries) {
		sc.winIdx = make([][]int32, len(queries))
	}
	winIdx := sc.winIdx[:len(queries)]
	totalNW := 0
	for _, q := range queries {
		if nw := q.NumWindows(w); nw > 0 {
			totalNW += nw
		}
	}
	if cap(sc.wiArena) < totalNW {
		sc.wiArena = make([]int32, totalNW)
	}
	wiUsed := 0
	for qi, q := range queries {
		nw := q.NumWindows(w)
		if nw <= 0 {
			winIdx[qi] = nil
			continue
		}
		res := q.Residues()
		wi := sc.wiArena[wiUsed : wiUsed+nw]
		wiUsed += nw
		for i := 0; i < nw; i++ {
			key := res[i : i+w]
			u, ok := uniq[key]
			if !ok {
				u = int32(len(keys))
				uniq[key] = u
				keys = append(keys, key)
				firstQ = append(firstQ, int32(qi))
				firstPos = append(firstPos, int32(i))
			}
			wi[i] = u
		}
		winIdx[qi] = wi
	}

	// Resolve unique windows: cache first, then search the misses.
	if cap(sc.vals) < len(keys) {
		sc.vals = make([][]WinScore, len(keys))
	}
	vals := sc.vals[:len(keys)]
	missing := sc.missing[:0]
	cache.observeBatch(len(keys))
	for u, key := range keys {
		if v, ok := cache.Get(key); ok {
			vals[u] = v
		} else {
			missing = append(missing, int32(u))
		}
	}
	if len(missing) > 0 {
		workers := nThreads
		if workers > len(missing) {
			workers = len(missing)
		}
		var wg sync.WaitGroup
		for t := 0; t < workers; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				s := ix.getSearcher(false)
				var qidx []int8
				lastQ := int32(-1)
				for j := t; j < len(missing); j += workers {
					u := missing[j]
					if firstQ[u] != lastQ {
						lastQ = firstQ[u]
						qidx = queries[lastQ].Indices()
					}
					res := s.searchWindow(qidx, int(firstPos[u]), keys[u])
					vals[u] = res
					cache.Put(keys[u], res)
				}
				ix.putSearcher(s)
			}(t)
		}
		wg.Wait()
	}

	// Assemble every query's profile (independent; parallel).
	workers := nThreads
	if workers > len(queries) {
		workers = len(queries)
	}
	assembleRange := func(asm *assembler, from, stride int) {
		for qi := from; qi < len(queries); qi += stride {
			wi := winIdx[qi]
			if wi == nil {
				out[qi] = FlatProfile{Offsets: []int32{0}}
				continue
			}
			out[qi] = asm.assemble(len(wi), func(i int) []WinScore { return vals[wi[i]] })
		}
	}
	if workers <= 1 {
		assembleRange(sc.asm, 0, 1)
	} else {
		var wg sync.WaitGroup
		for t := 0; t < workers; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				assembleRange(newAssembler(len(ix.proteins)), t, workers)
			}(t)
		}
		wg.Wait()
	}
	// Return the scratch with stale state trimmed: keys/vals reference
	// caller residues and cache values, dead after this call.
	sc.keys, sc.firstQ, sc.firstPos = keys[:0], firstQ[:0], firstPos[:0]
	sc.vals, sc.missing = vals, missing[:0]
	ix.putScratch(sc)
	return out
}

// SeedWindowCache inserts every window result of a precomputed profile
// into the cache, keyed by window content — warming the cache from a
// persisted or broadcast database without running any search. The
// profile must be s's profile against this index; expanded per-window
// lists match what a fresh search would have produced, including cached
// empties for windows with no similar fragment.
func (ix *Index) SeedWindowCache(s seq.Sequence, prof FlatProfile, cache *WindowCache) {
	if cache == nil {
		return
	}
	w := ix.cfg.Window
	nw := s.NumWindows(w)
	if nw <= 0 {
		return
	}
	counts := make([]int32, nw)
	for _, pos := range prof.Pos {
		counts[pos]++
	}
	buf := make([]WinScore, len(prof.Pos))
	offs := make([]int32, nw+1)
	for i := 0; i < nw; i++ {
		offs[i+1] = offs[i] + counts[i]
		counts[i] = 0 // reused as fill cursor
	}
	for r, id := range prof.IDs {
		for j := prof.Offsets[r]; j < prof.Offsets[r+1]; j++ {
			pos := prof.Pos[j]
			buf[offs[pos]+counts[pos]] = WinScore{Protein: id, Score: prof.Score[j]}
			counts[pos]++
		}
	}
	res := s.Residues()
	for i := 0; i < nw; i++ {
		lst := buf[offs[i]:offs[i+1]]
		if len(lst) == 0 {
			lst = nil // a fresh search returns nil for an empty window
		}
		cache.Put(res[i:i+w], lst)
	}
}

// SequenceSimilarityDelta computes child's profile by editing parent's:
// a window whose residue content is unchanged at the same position has
// an identical search result by construction and is lifted straight out
// of the parent profile; only the at most w*changes windows overlapping
// an edited residue are resolved (cache first, then searched). Exact
// for any same-length parent — a wrong or unrelated "parent" only costs
// extra searches, never accuracy — and a different-length parent
// degrades to a full cached build. Returns the profile and the number
// of windows reused from the parent.
func (ix *Index) SequenceSimilarityDelta(parent seq.Sequence, parentProf FlatProfile, child seq.Sequence, nThreads int, cache *WindowCache) (FlatProfile, int) {
	w := ix.cfg.Window
	nw := child.NumWindows(w)
	if nw <= 0 {
		return FlatProfile{Offsets: []int32{0}}, 0
	}
	if parent.Len() != child.Len() {
		return ix.sequenceSimilarityAgg(child, nThreads, false, cache), 0
	}
	pres, cres := parent.Residues(), child.Residues()
	sc := ix.getScratch()
	if cap(sc.stale) < nw {
		sc.stale = make([]bool, nw)
	}
	stale := sc.stale[:nw]
	clear(stale)
	nStale := 0
	for p := 0; p < len(cres); p++ {
		if pres[p] == cres[p] {
			continue
		}
		lo := p - w + 1
		if lo < 0 {
			lo = 0
		}
		hi := p
		if hi > nw-1 {
			hi = nw - 1
		}
		for i := lo; i <= hi; i++ {
			if !stale[i] {
				stale[i] = true
				nStale++
			}
		}
	}

	// Expand the parent's CSR rows back into per-window lists for the
	// reused windows. Rows are visited in ascending protein order, so
	// each per-window list comes out protein-ascending, exactly as a
	// fresh search would produce it.
	if cap(sc.perWin) < nw {
		sc.perWin = make([][]WinScore, nw)
	}
	perWin := sc.perWin[:nw]
	if cap(sc.counts) < nw {
		sc.counts = make([]int32, nw)
	}
	counts := sc.counts[:nw]
	clear(counts)
	total := 0
	for _, pos := range parentProf.Pos {
		if !stale[pos] {
			counts[pos]++
			total++
		}
	}
	if cap(sc.buf) < total {
		sc.buf = make([]WinScore, total)
	}
	buf := sc.buf[:total]
	if cap(sc.offs) < nw+1 {
		sc.offs = make([]int32, nw+1)
	}
	offs := sc.offs[:nw+1]
	offs[0] = 0
	for i := 0; i < nw; i++ {
		offs[i+1] = offs[i] + counts[i]
		counts[i] = 0 // reused as fill cursor below
	}
	for r, id := range parentProf.IDs {
		for j := parentProf.Offsets[r]; j < parentProf.Offsets[r+1]; j++ {
			pos := parentProf.Pos[j]
			if stale[pos] {
				continue
			}
			buf[offs[pos]+counts[pos]] = WinScore{Protein: id, Score: parentProf.Score[j]}
			counts[pos]++
		}
	}
	reused := 0
	for i := 0; i < nw; i++ {
		if !stale[i] {
			perWin[i] = buf[offs[i]:offs[i+1]]
			reused++
		}
	}

	// Resolve the stale windows like any other lookup.
	missing := sc.missing[:0]
	for i := 0; i < nw; i++ {
		if !stale[i] {
			continue
		}
		if v, ok := cache.Get(cres[i : i+w]); ok {
			perWin[i] = v
		} else {
			missing = append(missing, int32(i))
		}
	}
	ix.searchWindowsInto(child, missing, perWin, nThreads, false, cache)
	out := sc.asm.assemble(nw, func(i int) []WinScore { return perWin[i] })
	sc.missing = missing[:0]
	ix.putScratch(sc)
	return out, reused
}
