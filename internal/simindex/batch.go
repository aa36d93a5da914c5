package simindex

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/seq"
	"repro/internal/submat"
)

// This file is the batched, cache-aware preprocessing path. The search
// for one window is a pure function of its w residues, so results are
// shared three ways without approximation: across the windows of one
// generation (SequenceSimilarityBatch dedups identical window content
// before searching), with the natural proteome (the WindowCache table
// holds every natural window's result, keyed on content), and between a
// GA child and its parents (SequenceSimilarityDelta lifts every window a
// mutation did not touch or a crossover took whole from either side). What is left to search comes in runs of adjacent
// windows — a point mutation stales w of them in a row, a crossover the
// w-1 straddling its cut, a cold query all of them — and adjacent
// windows share all but one of their seed k-mers, so every caller hands
// its unresolved windows to the one seeded search there is, searchRun,
// a run at a time. Profiles
// are assembled from per-window aggregated hit lists in ascending window
// order, which reproduces mergeFlat's CSR output exactly — rows in
// ascending protein order, positions ascending within a row, best score
// per entry — so the float accumulation downstream
// (pipe.newQueryFromProfile) sees bit-identical input no matter which
// path built the profile.

// arenaChunk sizes the winSearcher's write-once result arena. Results
// are appended chunk by chunk and never moved, so slices handed out stay
// valid until the profile is assembled, even after the searcher has gone
// back to the pool, without a copy per window.
const arenaChunk = 4096

// maxRun caps the windows searched together so that the windows a
// diagonal seeds fit one uint64 mask; longer stretches are cut.
const maxRun = 64

// diag is one seeded diagonal of a run: target protein prot, aligned so
// that run window t starts at target position t + dd - (n-1) (n the run
// length; dd >= 0 is the diagonal's rank within the protein). Bit t of
// mask is set when some seed k-mer of run window t lies on the diagonal.
type diag struct {
	g    uint32 // slot index: the diagonal's proteome-wide ID
	prot int32
	dd   int32
	mask uint64
}

// runHit is one verified candidate of a run: window t scored score
// (>= threshold) against some window of protein.
type runHit struct {
	t, protein, score int32
}

// winSearcher holds one worker's reusable search scratch. Not safe for
// concurrent use; check one out per goroutine with getSearcher and
// return it with putSearcher so the diagonal table and arena amortize
// across calls.
type winSearcher struct {
	ix    *Index
	brute bool
	// slot and diags are a sparse set over diagonal IDs: g is a member
	// iff slot[g] < len(diags) && diags[slot[g]].g == g, so starting a
	// run is diags = diags[:0] — no epoch, no clear, and stale or
	// never-written slots are harmless. slot is the searcher's only
	// proteome-sized scratch: 4 B x (totalWins + maxRun x proteins).
	slot  []uint32
	diags []diag
	qrows []*[seq.NumAminoAcids]int8
	hits  []runHit
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
	runs     []int32
	wiArena  []int32
	winIdx   [][]int32
	vals     [][]WinScore
	perWin   [][]WinScore
	from     []int8
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

// ones returns the mask with bits a..b set (0 <= a <= b <= 63).
func ones(a, b int) uint64 { return ^uint64(0) >> uint(63-(b-a)) << uint(a) }

// searchRun resolves the adjacent windows lo..hi (at most maxRun) of one
// query together: out[i-lo] receives window i's aggregated hit list —
// one WinScore per similar proteome protein, best score, sorted by
// protein ID. qidx and res are the whole query as alphabet indices and
// residues. The lists are write-once arena storage: stable for the
// searcher's lifetime and safe to retain, never to mutate.
func (s *winSearcher) searchRun(qidx []int8, res string, lo, hi int, out [][]WinScore) {
	n := hi - lo + 1
	if s.brute {
		s.bruteHits(qidx, lo, n)
	} else {
		s.seededHits(qidx, res, lo, n)
	}
	// s.hits is sorted by (window, protein): fold each window's hits to
	// the best per protein (int32 max is exact, so the order of equal
	// keys is immaterial).
	hits := s.hits
	h := 0
	for t := 0; t < n; t++ {
		agg := s.agg[:0]
		for ; h < len(hits) && int(hits[h].t) == t; h++ {
			if m := len(agg); m > 0 && agg[m-1].Protein == hits[h].protein {
				agg[m-1].Score = max(agg[m-1].Score, hits[h].score)
			} else {
				agg = append(agg, WinScore{Protein: hits[h].protein, Score: hits[h].score})
			}
		}
		s.agg = agg
		out[t] = nil
		if len(agg) > 0 {
			out[t] = s.stash(agg)
		}
	}
}

// bruteHits fills s.hits with every window of the proteome scoring >=
// threshold against each of the n query windows from lo: the exhaustive
// reference, for tests and the seeding ablation.
func (s *winSearcher) bruteHits(qidx []int8, lo, n int) {
	ix := s.ix
	w := ix.cfg.Window
	hits := s.hits[:0]
	for t := 0; t < n; t++ {
		for p, target := range ix.indices {
			for start := 0; start+w <= len(target); start++ {
				if score := ix.cfg.Matrix.WindowScoreIdx(qidx, lo+t, target, start, w); score >= ix.cfg.Threshold {
					hits = append(hits, runHit{t: int32(t), protein: int32(p), score: int32(score)})
				}
			}
		}
	}
	s.hits = hits
}

// seededHits fills s.hits with the seeded candidates scoring >= threshold
// against each of the n query windows from lo, sorted by (window,
// protein).
//
// Each seed k-mer of the span is looked up once. A reference (protein,
// P) to the k-mer at query offset j lies on the diagonal P - j of that
// protein and seeds exactly the windows that contain the k-mer, i in
// [j-(w-k), j]; marking those on the diagonal's mask gives every window
// the candidate set a search of that window alone generates. A
// diagonal's marked windows are then scored by sliding: one step along
// the diagonal drops one residue pair and takes one on, so only the
// first window of a marked stretch pays the full w-term sum. Scores are
// integer sums, so sliding is exact.
func (s *winSearcher) seededHits(qidx []int8, res string, lo, n int) {
	ix := s.ix
	w, k, thr := ix.cfg.Window, ix.cfg.SeedLen, ix.cfg.Threshold
	if s.slot == nil {
		s.slot = make([]uint32, ix.totalWins+maxRun*len(ix.proteins))
	}
	slot, diags := s.slot, s.diags[:0]
	winBase := ix.winBase
	for j := 0; j+k <= n-1+w; j++ {
		key, ok := ix.cfg.Reduced.ReduceKmer(res, lo+j, k)
		if !ok {
			continue
		}
		jmask := ones(max(0, j-(w-k)), min(n-1, j))
		for _, ref := range ix.refs(key) {
			// Diagonals 0 <= dd < nw+n-1 are those on which at least one
			// window of the run lies wholly inside the protein; a protein
			// shorter than w has none.
			nw := winBase[ref.Protein+1] - winBase[ref.Protein]
			dd := ref.Pos - int32(j) + int32(n-1)
			if nw == 0 || uint32(dd) >= uint32(nw)+uint32(n-1) {
				continue
			}
			g := uint32(winBase[ref.Protein]) + uint32(ref.Protein)*maxRun + uint32(dd)
			if si := slot[g]; int(si) < len(diags) && diags[si].g == g {
				diags[si].mask |= jmask
			} else {
				slot[g] = uint32(len(diags))
				diags = append(diags, diag{g: g, prot: ref.Protein, dd: dd, mask: jmask})
			}
		}
	}
	s.diags = diags
	// Pre-fetch the score-table row of each residue of the span: the
	// scoring loops then index once per residue pair.
	if cap(s.qrows) < maxRun-1+w {
		s.qrows = make([]*[seq.NumAminoAcids]int8, maxRun-1+w)
	}
	qrows := s.qrows[:n-1+w]
	ix.cfg.Matrix.WindowRowsInto(qrows, qidx, lo, n-1+w)
	flat, protOff := ix.flatIdx, ix.protOff
	hits := s.hits[:0]
	for _, dg := range diags {
		// Keep the marked windows that start inside the protein:
		// 0 <= t + dd-(n-1) <= nw-1.
		nw := int(winBase[dg.prot+1] - winBase[dg.prot])
		shift := int(dg.dd) - (n - 1)
		m := dg.mask & ones(max(0, -shift), min(n-1, nw-1-shift))
		base := int(protOff[dg.prot]) + shift
		for m != 0 {
			t := bits.TrailingZeros64(m)
			l := bits.TrailingZeros64(^(m >> uint(t))) // stretch t..t+l-1
			rows := qrows[t : t+l-1+w]
			tgt := flat[base+t : base+t+l-1+w]
			score := submat.WindowScoreRows(rows, tgt, 0, w)
			if score >= thr {
				hits = append(hits, runHit{t: int32(t), protein: dg.prot, score: int32(score)})
			}
			for u := 0; u < l-1; u++ {
				score += int(rows[u+w][tgt[u+w]]) - int(rows[u][tgt[u]])
				if score >= thr {
					hits = append(hits, runHit{t: int32(t + u + 1), protein: dg.prot, score: int32(score)})
				}
			}
			if t+l >= 64 {
				break
			}
			m &^= uint64(1)<<uint(t+l) - 1
		}
	}
	// Diagonals arrive in discovery order; the fold wants each window's
	// (few) surviving hits together and protein-ascending.
	slices.SortFunc(hits, func(a, b runHit) int {
		if a.t != b.t {
			return int(a.t - b.t)
		}
		return int(a.protein - b.protein)
	})
	s.hits = hits
}

// searchWindows resolves the ascending window positions wins of one
// query into perWin (indexed by position), a run of adjacent positions
// at a time.
func (s *winSearcher) searchWindows(qidx []int8, res string, wins []int32, perWin [][]WinScore) {
	for a := 0; a < len(wins); {
		b := a + 1
		for b < len(wins) && b-a < maxRun && wins[b] == wins[b-1]+1 {
			b++
		}
		lo, hi := int(wins[a]), int(wins[b-1])
		s.searchRun(qidx, res, lo, hi, perWin[lo:hi+1])
		a = b
	}
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

// searchWindowsInto searches the listed (ascending) window positions of
// query with nThreads workers, each taking one contiguous chunk of the
// list so that adjacent windows stay in one run, storing each aggregated
// result in perWin.
func (ix *Index) searchWindowsInto(query seq.Sequence, wins []int32, perWin [][]WinScore, nThreads int, brute bool) {
	if len(wins) == 0 {
		return
	}
	res := query.Residues()
	qidx := query.Indices()
	if nThreads > len(wins) {
		nThreads = len(wins)
	}
	if nThreads <= 1 {
		s := ix.getSearcher(brute)
		s.searchWindows(qidx, res, wins, perWin)
		ix.putSearcher(s)
		return
	}
	var wg sync.WaitGroup
	for t := 0; t < nThreads; t++ {
		wg.Add(1)
		go func(chunk []int32) {
			defer wg.Done()
			s := ix.getSearcher(brute)
			s.searchWindows(qidx, res, chunk, perWin)
			ix.putSearcher(s)
		}(wins[t*len(wins)/nThreads : (t+1)*len(wins)/nThreads])
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
	for i := 0; i < nw; i++ {
		if v, ok := cache.Get(res[i : i+w]); ok {
			perWin[i] = v
		} else {
			missing = append(missing, int32(i))
		}
	}
	ix.searchWindowsInto(query, missing, perWin, nThreads, brute)
	out := sc.asm.assemble(nw, func(i int) []WinScore { return perWin[i] })
	sc.missing = missing[:0]
	ix.putScratch(sc)
	return out
}

// SequenceSimilarityCached is SequenceSimilarity backed by the natural
// proteome's window table: windows whose content is in it skip the
// search. Output is bit-identical to the plain path. A nil table
// degrades to a plain build.
func (ix *Index) SequenceSimilarityCached(query seq.Sequence, nThreads int, cache *WindowCache) FlatProfile {
	return ix.sequenceSimilarityAgg(query, nThreads, false, cache)
}

// SequenceSimilarityBatch computes the profiles of a whole generation
// at once: identical window content is searched once per batch (GA
// populations share most of their windows between siblings and exact
// copies), remaining lookups go through the window table, and only
// content found in neither is searched. Profiles are assembled
// per-query through the same sorted CSR emission as the sequential
// path, so out[i] is bit-identical to SequenceSimilarity(queries[i]).
// nThreads bounds total worker parallelism (<= 0 means GOMAXPROCS); a
// nil table still gets full in-batch deduplication.
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

	// Resolve unique windows: the table first, then search the misses.
	if cap(sc.vals) < len(keys) {
		sc.vals = make([][]WinScore, len(keys))
	}
	vals := sc.vals[:len(keys)]
	missing := sc.missing[:0]
	for u, key := range keys {
		if v, ok := cache.Get(key); ok {
			vals[u] = v
		} else {
			missing = append(missing, int32(u))
		}
	}
	if len(missing) > 0 {
		// Unique IDs ascend in first-seen order, so adjacent windows first
		// seen in the same query are adjacent in missing and carry
		// consecutive IDs: cut missing into runs (runs[r]..runs[r+1]) and
		// let the workers pull them.
		runs := sc.runs[:0]
		for j, u := range missing {
			if j > 0 && j-int(runs[len(runs)-1]) < maxRun {
				if prev := missing[j-1]; firstQ[u] == firstQ[prev] && firstPos[u] == firstPos[prev]+1 {
					continue
				}
			}
			runs = append(runs, int32(j))
		}
		runs = append(runs, int32(len(missing)))
		sc.runs = runs
		workers := min(nThreads, len(runs)-1)
		var next atomic.Int32
		var wg sync.WaitGroup
		for t := 0; t < workers; t++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := ix.getSearcher(false)
				var qidx []int8
				lastQ := int32(-1)
				for {
					r := int(next.Add(1)) - 1
					if r >= len(runs)-1 {
						break
					}
					u, n := missing[runs[r]], int(runs[r+1]-runs[r])
					if firstQ[u] != lastQ {
						lastQ = firstQ[u]
						qidx = queries[lastQ].Indices()
					}
					lo := int(firstPos[u])
					s.searchRun(qidx, queries[lastQ].Residues(), lo, lo+n-1, vals[u:int(u)+n])
				}
				ix.putSearcher(s)
			}()
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
	// caller residues and table values, dead after this call.
	sc.keys, sc.firstQ, sc.firstPos = keys[:0], firstQ[:0], firstPos[:0]
	sc.vals, sc.missing = vals, missing[:0]
	ix.putScratch(sc)
	return out
}

// DeltaParent is a sequence together with its profile against this
// index: what SequenceSimilarityDelta lifts a child's unchanged windows
// out of.
type DeltaParent struct {
	Seq  seq.Sequence
	Prof FlatProfile
}

// SequenceSimilarityDelta computes child's profile by editing its
// parents': a window whose residue content is unchanged at the same
// position in some parent has an identical search result by
// construction and is lifted straight out of that parent's profile (the
// first parent that has it wins). A point mutant leaves the at most
// w*changes windows overlapping an edited residue; a crossover child
// given both parents leaves the at most w-1 windows straddling the cut.
// A window that differs from every parent is new content, so it is
// searched directly — the delta path does not consult the window table. Exact for any parents: a wrong, unrelated or different-length
// one only costs searches, never accuracy. Returns the profile and the
// number of windows lifted.
func (ix *Index) SequenceSimilarityDelta(parents []DeltaParent, child seq.Sequence, nThreads int) (FlatProfile, int) {
	w := ix.cfg.Window
	nw := child.NumWindows(w)
	if nw <= 0 {
		return FlatProfile{Offsets: []int32{0}}, 0
	}
	cres := child.Residues()
	sc := ix.getScratch()
	// A parent of another length shares no window position with child.
	use := make([]*DeltaParent, 0, 2)
	for k := range parents {
		if parents[k].Seq.Len() == len(cres) {
			use = append(use, &parents[k])
		}
	}
	// from[i] is the parent (index into use) window i is lifted from, -1
	// to search it. Window i is unchanged against a parent iff the last
	// mismatching residue at or before its end lies before its start.
	if cap(sc.from) < nw {
		sc.from = make([]int8, nw)
	}
	from := sc.from[:nw]
	for i := range from {
		from[i] = -1
	}
	for k, par := range use {
		pres := par.Seq.Residues()
		last := -1
		for p := 0; p < len(cres); p++ {
			if pres[p] != cres[p] {
				last = p
			}
			if i := p - w + 1; i >= 0 && last < i && from[i] < 0 {
				from[i] = int8(k)
			}
		}
	}

	// Expand the parents' CSR rows back into per-window lists for the
	// lifted windows. Rows are visited in ascending protein order, so
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
	for k, par := range use {
		for _, pos := range par.Prof.Pos {
			if from[pos] == int8(k) {
				counts[pos]++
				total++
			}
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
	for k, par := range use {
		prof := &par.Prof
		for r, id := range prof.IDs {
			for j := prof.Offsets[r]; j < prof.Offsets[r+1]; j++ {
				pos := prof.Pos[j]
				if from[pos] != int8(k) {
					continue
				}
				buf[offs[pos]+counts[pos]] = WinScore{Protein: id, Score: prof.Score[j]}
				counts[pos]++
			}
		}
	}
	missing := sc.missing[:0]
	for i := 0; i < nw; i++ {
		if from[i] >= 0 {
			perWin[i] = buf[offs[i]:offs[i+1]]
		} else {
			missing = append(missing, int32(i))
		}
	}
	ix.searchWindowsInto(child, missing, perWin, nThreads, false)
	out := sc.asm.assemble(nw, func(i int) []WinScore { return perWin[i] })
	lifted := nw - len(missing)
	sc.missing = missing[:0]
	ix.putScratch(sc)
	return out, lifted
}
