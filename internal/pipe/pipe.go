// Package pipe implements the Protein-protein Interaction Prediction
// Engine used as InSiPS's fitness oracle (paper Section 2.2, after
// Schoenrock et al., "MP-PIPE", ICS 2011).
//
// For a query pair (A, B), PIPE slides a window of size w over both
// sequences. The result matrix M has one cell per window pair (i, j); the
// cell counts how many known interacting protein pairs (X, Y) exist such
// that window i of A is PAM120-similar to a fragment of X and window j of
// B is similar to a fragment of Y. Co-occurrence of a fragment pair
// across many known interactions is evidence the fragments mediate an
// interaction.
//
// Raw counts alone reward promiscuous fragments (ones similar to many
// proteins), so each smoothed cell is normalized by the number of
// candidate pairs it could have come from: the product of the two
// fragments' proteome occurrence counts. The normalized cell value is
// then the fraction of candidate (X, Y) pairs that actually interact —
// the specificity of the fragment pair. The final score is a saturating
// transform of the mean of the top cells, giving a relative interaction
// likelihood in [0,1].
//
// The exact normalization of the original engine is unpublished; ours is
// calibrated (see AcceptanceThreshold) to the operating point the paper
// quotes: a false-positive rate below 0.5% on non-interacting pairs.
package pipe

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/ppigraph"
	"repro/internal/seq"
	"repro/internal/simindex"
	"repro/internal/submat"
)

// Config controls scoring. The zero value gets sensible defaults.
type Config struct {
	// Index configures window similarity search (window size, PAM120
	// threshold, seeding).
	Index simindex.Config
	// CellSupport is the minimum smoothed weighted co-occurrence mass for
	// a cell to contribute to the score (suppresses single-edge
	// coincidences while letting weak graded evidence through, which is
	// what gives the genetic algorithm its early gradient). Default 0.5.
	CellSupport float64
	// FilterRadius is the box-filter radius (1 means a 3x3 neighborhood).
	// Default 1. Set Unfiltered to disable smoothing instead.
	FilterRadius int
	// Unfiltered disables the box filter (ablation).
	Unfiltered bool
	// TopFrac is the fraction of result-matrix cells (by value, after
	// smoothing and normalization) averaged into the raw score.
	// Default 0.01 (at least one cell).
	TopFrac float64
	// ScoreScale is the raw specificity at which the score reaches 0.5;
	// the score is raw/(raw+ScoreScale). Default 0.08.
	ScoreScale float64
	// Pseudocount shrinks the specificity of weakly-occurring fragment
	// pairs: cell value = count / (occProduct + Pseudocount). Default 60.
	Pseudocount float64
	// MinOcc is the minimum number of distinct proteome proteins each
	// fragment of a cell must be similar to. Requiring >= 2 is the heart
	// of PIPE: evidence must be a *co-occurring* fragment pair, conserved
	// across multiple proteins on both sides, not a fluke similarity to a
	// single protein's unique region. Default 2.
	MinOcc int
	// MinEvidence is the minimum number of distinct query-side evidence
	// proteins X (over known edges (X, Y)) whose co-occurrences support a
	// cell. It closes the remaining single-protein loophole MinOcc leaves
	// open: one strong background match to a single well-connected
	// protein cannot carry a prediction by itself. Default 2.
	MinEvidence int
	// WeightScale grades similarity hits: a hit at exactly the window
	// threshold weighs ~0, one scoring Threshold+WeightScale or better
	// weighs 1. Graded weights (the "similarity-weighted" PIPE variant)
	// reward high-fidelity fragment matches, giving the genetic algorithm
	// pressure toward strongly binding motifs. Default 40.
	WeightScale float64
	// WeightCap bounds weights; values above 1 let matches far above
	// threshold keep gaining weight (an ablation knob — the default 1
	// saturates at Threshold+WeightScale, which bootstraps the GA best).
	WeightCap float64
	// WindowCacheEntries is the ceiling of the engine's shared
	// window-similarity cache (see simindex.WindowCache): window search
	// results are keyed by exact residue content and reused across
	// queries, batches, and generations, so cached profiles stay
	// bit-identical to fresh ones. Under the ceiling the cache sizes
	// itself: the natural-window seed stays resident and the rest
	// follows the largest batch evaluated.
	// 0 means DefaultWindowCacheEntries; negative disables the cache.
	// Purely a performance knob: it never affects scores and is not part
	// of the database fingerprint.
	WindowCacheEntries int
}

// DefaultWindowCacheEntries is the window-cache ceiling used when
// Config.WindowCacheEntries is zero: room for several generations of
// candidate windows at published InSiPS population sizes (a generation
// of 1000 candidates of a few hundred residues is ~10^5 windows). It is
// reached only by traffic that large; at ~100 bytes per resident entry
// that is tens of megabytes — lower Config.WindowCacheEntries on
// memory-constrained deployments.
const DefaultWindowCacheEntries = 1 << 19

func (c Config) withDefaults() Config {
	if c.Index.Window == 0 {
		c.Index.Window = 20
	}
	if c.Index.SeedLen == 0 {
		c.Index.SeedLen = 5
	}
	if c.Index.Threshold == 0 {
		c.Index.Threshold = 35
	}
	if c.Index.Matrix == nil {
		c.Index.Matrix = submat.PAM120()
	}
	if c.Index.Reduced == nil {
		c.Index.Reduced = seq.Murphy10()
	}
	if c.CellSupport == 0 {
		c.CellSupport = 0.5
	}
	if c.FilterRadius == 0 {
		c.FilterRadius = 1
	}
	if c.TopFrac == 0 {
		c.TopFrac = 0.01
	}
	if c.ScoreScale == 0 {
		c.ScoreScale = 0.08
	}
	if c.Pseudocount == 0 {
		c.Pseudocount = 60
	}
	if c.MinOcc == 0 {
		c.MinOcc = 2
	}
	if c.MinEvidence == 0 {
		c.MinEvidence = 2
	}
	if c.WeightScale == 0 {
		c.WeightScale = 40
	}
	if c.WeightCap == 0 {
		c.WeightCap = 1
	}
	return c
}

// Engine scores protein pairs against a fixed proteome and interaction
// graph. It is immutable after New and safe for concurrent use; per-call
// scratch space lives in Scorer values (reused via AcquireScorer).
type Engine struct {
	cfg     Config
	graph   *ppigraph.Graph
	index   *simindex.Index
	db      []*Query  // precomputed query context per natural protein
	scorers sync.Pool // *Scorer reuse across batch calls

	// winCache memoizes window-similarity searches across queries and
	// generations (nil when disabled); deltaQueries/deltaReused count
	// incremental profile builds and the windows they lifted from
	// parents. All are concurrency-safe; none affect scores.
	winCache     *simindex.WindowCache
	deltaQueries atomic.Int64
	deltaReused  atomic.Int64
}

// Query is the preprocessed form of one sequence: its similarity profile
// against the proteome plus per-window occurrence counts. Building a
// Query is the candidate preprocessing step of Algorithm 2 ("build
// specified portion of sequence_similarity in parallel"). A Query is
// immutable and safe for concurrent use.
//
// The profile is held in CSR form (see simindex.FlatProfile): the scoring
// inner loop walks contiguous position/weight slices, and the dense
// per-proteome lookup table turns "does the profile cover protein y" into
// one array read instead of a map probe.
type Query struct {
	Seq      seq.Sequence
	prof     simindex.FlatProfile
	weight   []float32 // graded similarity weight, parallel to prof.Pos
	occCount []int32   // per-window count of distinct similar proteins
	occW     []float32 // per-window sum of similarity weights
	lookup   []int32   // protein ID -> row in prof, -1 if absent; len = proteome size
	// boxOcc and eligible are derived from occCount/occW at the engine's
	// effective filter radius, once per query instead of once per Score
	// call: boxOcc is the smoothed-occurrence normalization vector and
	// eligible[i] folds the per-window filter clauses
	// (occCount[i] >= MinOcc && boxOcc[i] > 0) into a single byte.
	boxOcc   []float64
	eligible []bool
	// eligCols lists the indices where eligible is true, ascending. The
	// target-side scan in topSpecificity iterates this compacted list
	// instead of testing eligible per cell: pure selection (an ineligible
	// column can never push a cell), so scores are unchanged while the
	// sweep touches only the ~30% of columns that can matter.
	eligCols []int32
}

// Profile returns the query's CSR similarity profile (shared; read-only).
func (q *Query) Profile() simindex.FlatProfile { return q.prof }

// New builds an engine over the proteome and interaction graph. The i-th
// protein must be the graph vertex with ID i (matched by name). The
// per-protein similarity database — the preprocessing the paper performs
// "offline, beforehand, for the known natural proteins" — is built in
// parallel across nThreads (<= 0 means GOMAXPROCS).
func New(proteins []seq.Sequence, g *ppigraph.Graph, cfg Config, nThreads int) (*Engine, error) {
	cfg = cfg.withDefaults()
	if g.NumProteins() != len(proteins) {
		return nil, fmt.Errorf("pipe: %d proteins but graph has %d vertices", len(proteins), g.NumProteins())
	}
	for i, p := range proteins {
		if g.Name(i) != p.Name() {
			return nil, fmt.Errorf("pipe: protein %d is %q but graph vertex %d is %q", i, p.Name(), i, g.Name(i))
		}
	}
	ix, err := simindex.Build(proteins, cfg.Index)
	if err != nil {
		return nil, err
	}
	e := newEngine(cfg, g, ix, len(proteins))
	if nThreads <= 0 {
		nThreads = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	for t := 0; t < nThreads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			for i := t; i < len(proteins); i += nThreads {
				// The cached build pre-seeds the window cache with every
				// natural window, so generation-0 chimeras assembled from
				// natural fragments preprocess almost entirely from cache.
				e.db[i] = e.newQueryFromProfile(proteins[i], ix.SequenceSimilarityCached(proteins[i], 1, e.winCache))
			}
		}(t)
	}
	wg.Wait()
	e.winCache.Seal()
	return e, nil
}

// NewFromProfiles builds an engine like New but from precomputed CSR
// similarity profiles (one per protein, aligned with the proteome) —
// the payload a persisted database or a distributed Setup broadcast
// carries, sparing the receiver the similarity search.
func NewFromProfiles(proteins []seq.Sequence, g *ppigraph.Graph, cfg Config, profiles []simindex.FlatProfile) (*Engine, error) {
	cfg = cfg.withDefaults()
	if g.NumProteins() != len(proteins) {
		return nil, fmt.Errorf("pipe: %d proteins but graph has %d vertices", len(proteins), g.NumProteins())
	}
	if len(profiles) != len(proteins) {
		return nil, fmt.Errorf("pipe: %d profiles for %d proteins", len(profiles), len(proteins))
	}
	ix, err := simindex.Build(proteins, cfg.Index)
	if err != nil {
		return nil, err
	}
	e := newEngine(cfg, g, ix, len(proteins))
	for i, p := range proteins {
		e.db[i] = e.newQueryFromProfile(p, profiles[i])
		// Warm the window cache from the shipped profiles so a loaded or
		// broadcast database starts with the same natural-window coverage
		// a locally built one has.
		ix.SeedWindowCache(p, profiles[i], e.winCache)
	}
	e.winCache.Seal()
	return e, nil
}

func newEngine(cfg Config, g *ppigraph.Graph, ix *simindex.Index, nProteins int) *Engine {
	e := &Engine{
		cfg:   cfg,
		graph: g,
		index: ix,
		db:    make([]*Query, nProteins),
	}
	entries := cfg.WindowCacheEntries
	if entries == 0 {
		entries = DefaultWindowCacheEntries
	}
	e.winCache = simindex.NewWindowCache(entries) // nil when entries < 0
	e.scorers.New = func() any { return &Scorer{e: e} }
	return e
}

// Config returns the effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// Graph returns the interaction graph the engine mines.
func (e *Engine) Graph() *ppigraph.Graph { return e.graph }

// Index returns the underlying window-similarity index.
func (e *Engine) Index() *simindex.Index { return e.index }

// DBQuery returns the precomputed query context of natural protein id.
func (e *Engine) DBQuery(id int) *Query { return e.db[id] }

// DBProfiles returns the per-protein CSR similarity profiles (shared;
// read-only) — the broadcastable form of the offline database a
// distributed master ships so workers skip the similarity search.
func (e *Engine) DBProfiles() []simindex.FlatProfile {
	out := make([]simindex.FlatProfile, len(e.db))
	for i, q := range e.db {
		out[i] = q.prof
	}
	return out
}

// weightOf grades a similarity score into (0, WeightCap].
func (e *Engine) weightOf(score int32) float32 {
	w := float64(score-int32(e.cfg.Index.Threshold)) / e.cfg.WeightScale
	if w > e.cfg.WeightCap {
		w = e.cfg.WeightCap
	}
	if w < 0.02 {
		w = 0.02 // threshold hits still register faintly
	}
	return float32(w)
}

func (e *Engine) newQueryFromProfile(s seq.Sequence, prof simindex.FlatProfile) *Query {
	nw := s.NumWindows(e.cfg.Index.Window)
	if nw < 0 {
		nw = 0
	}
	q := &Query{
		Seq:      s,
		prof:     prof,
		weight:   make([]float32, prof.NumEntries()),
		occCount: make([]int32, nw),
		occW:     make([]float32, nw),
		lookup:   make([]int32, e.index.NumProteins()),
	}
	for i := range q.lookup {
		q.lookup[i] = -1
	}
	// CSR rows are ID-sorted and positions ascend within a row, so this
	// single linear pass accumulates the weighted occupancy in exactly the
	// sorted order the determinism invariant requires: float sums are
	// identical across processes (and to the previous map-based layout).
	for r, id := range prof.IDs {
		q.lookup[id] = int32(r)
		for j := prof.Offsets[r]; j < prof.Offsets[r+1]; j++ {
			w := e.weightOf(prof.Score[j])
			q.weight[j] = w
			q.occCount[prof.Pos[j]]++
			q.occW[prof.Pos[j]] += w
		}
	}
	radius := e.cfg.FilterRadius
	if e.cfg.Unfiltered {
		radius = 0
	}
	q.boxOcc = boxSum1D(q.occW, nw, radius)
	q.eligible = make([]bool, nw)
	minOcc := int32(e.cfg.MinOcc)
	for i := range q.eligible {
		q.eligible[i] = q.occCount[i] >= minOcc && q.boxOcc[i] > 0
		if q.eligible[i] {
			q.eligCols = append(q.eligCols, int32(i))
		}
	}
	return q
}

// NewQuery preprocesses an arbitrary (usually synthetic) sequence for
// scoring, building its similarity profile with nThreads workers
// (<= 0 means GOMAXPROCS).
func (e *Engine) NewQuery(s seq.Sequence, nThreads int) *Query {
	return e.newQueryFromProfile(s, e.index.SequenceSimilarity(s, nThreads))
}

// Scorer holds reusable scratch space for result-matrix computation.
// A Scorer is not safe for concurrent use; create one per goroutine (or
// borrow one with Engine.AcquireScorer).
//
// The accumulation scratch (mat/evid/stamp) is kept all-zero between
// calls: Score records which result-matrix rows it dirties and reset
// clears only those, so a call touching a few hundred cells no longer
// pays a full n*m*(4+2+4)-byte memset. Freshly allocated slices are
// zero by construction and are never re-cleared.
type Scorer struct {
	e         *Engine
	mat       []float32
	evid      []uint16 // distinct evidence proteins per cell
	stamp     []int32  // last evidence protein to touch each cell
	horiz     []float32
	colAcc    []float32
	top       []float64
	touched   []int32 // result-matrix rows dirtied by the current call
	rowMark   []bool  // per-row membership flag for touched
	trackEvid bool    // evid/stamp maintained this call (MinEvidence > 0)
	colLo     int     // column span dirtied by the current call
	colHi     int     // (inclusive); colHi < colLo means nothing landed
	spanLo    int     // column range actually written to scratch this
	spanHi    int     // call (horiz and, within touched rows, mat/evid/stamp)
}

// NewScorer returns a fresh Scorer bound to the engine. Batch loops
// should prefer AcquireScorer/ReleaseScorer, which recycle scratch
// buffers across calls.
func (e *Engine) NewScorer() *Scorer { return &Scorer{e: e} }

// AcquireScorer borrows a Scorer from the engine's reuse pool. Return it
// with ReleaseScorer when the batch is done; the warmed-up scratch
// buffers then serve the next borrower without reallocation.
func (e *Engine) AcquireScorer() *Scorer { return e.scorers.Get().(*Scorer) }

// ReleaseScorer returns a Scorer obtained from AcquireScorer (or
// NewScorer) to the pool. The caller must not use s afterwards.
func (e *Engine) ReleaseScorer(s *Scorer) { e.scorers.Put(s) }

// grow sizes the scratch for an n x m result matrix. Fresh allocations
// are already zero (make zeroes); reused capacity is all-zero by the
// reset invariant, so no clearing happens here in either path.
func (s *Scorer) grow(n, m int) {
	total := n * m
	if cap(s.mat) < total {
		s.mat = make([]float32, total)
		s.evid = make([]uint16, total)
		s.stamp = make([]int32, total)
		s.horiz = make([]float32, total)
	}
	s.mat = s.mat[:total]
	s.evid = s.evid[:total]
	s.stamp = s.stamp[:total]
	s.horiz = s.horiz[:total]
	if cap(s.rowMark) < n {
		s.rowMark = make([]bool, n)
	}
	s.rowMark = s.rowMark[:n]
	s.touched = s.touched[:0]
}

// reset restores the all-zero scratch invariant after a call that
// dirtied the recorded rows of an n x m matrix. Sparse calls clear only
// the touched rows; above half density a straight bulk clear (which the
// compiler lowers to memclr) is cheaper than chasing row indices.
func (s *Scorer) reset(n, m int) {
	if len(s.touched)*2 >= n {
		for i := range s.mat {
			s.mat[i] = 0
		}
		for i := range s.horiz {
			s.horiz[i] = 0
		}
		if s.trackEvid {
			for i := range s.evid {
				s.evid[i] = 0
			}
			for i := range s.stamp {
				s.stamp[i] = 0
			}
		}
	} else {
		// All writes this call — mat/evid/stamp in the accumulation,
		// horiz in the smoothing pass — landed inside the recorded
		// column span of each touched row.
		lo, hi := s.spanLo, s.spanHi
		for _, r := range s.touched {
			base := int(r) * m
			row := s.mat[base+lo : base+hi]
			for j := range row {
				row[j] = 0
			}
			hrow := s.horiz[base+lo : base+hi]
			for j := range hrow {
				hrow[j] = 0
			}
			if s.trackEvid {
				erow := s.evid[base+lo : base+hi]
				for j := range erow {
					erow[j] = 0
				}
				srow := s.stamp[base+lo : base+hi]
				for j := range srow {
					srow[j] = 0
				}
			}
		}
	}
	for _, r := range s.touched {
		s.rowMark[r] = false
	}
	s.touched = s.touched[:0]
}

// Score computes PIPE(query, natural protein bID) in [0,1].
func (s *Scorer) Score(q *Query, bID int) float64 {
	e := s.e
	w := e.cfg.Index.Window
	b := e.db[bID]
	n := q.Seq.NumWindows(w)
	m := b.Seq.NumWindows(w)
	if n <= 0 || m <= 0 {
		return 0
	}
	s.grow(n, m)
	mat := s.mat
	// Result matrix: for every known edge (X, Y) with query-similar
	// windows on X and target-similar windows on Y, add the product of
	// the two similarity weights to all (i, j) combinations. Iterating X
	// over the query profile and Y over X's graph neighbors covers both
	// orientations of each undirected edge. The CSR rows are ID-sorted,
	// so the accumulation order (and every float sum) matches the
	// sorted-key iteration of the previous map layout exactly.
	evid, stamp := s.evid, s.stamp
	touched, rowMark := s.touched, s.rowMark
	qp, bp := &q.prof, &b.prof
	bLookup := b.lookup
	qEligible := q.eligible
	// Per-cell evidence counts are only ever read by the MinEvidence
	// filter; when that floor is zero the stamp/count bookkeeping (two
	// extra arrays in cache, a compare and up to two stores per cell) is
	// dead work and the whole mechanism is bypassed.
	s.trackEvid = e.cfg.MinEvidence > 0
	// colLo/colHi bound the columns any cell mass lands in; bPos rows are
	// position-sorted, so each block updates the span in O(1). The span
	// lets the smoothing and scan phases skip columns that are exactly
	// zero everywhere.
	colLo, colHi := m, -1
	for r, x := range qp.IDs {
		aStart, aEnd := qp.Offsets[r], qp.Offsets[r+1]
		xStamp := x + 1 // stamps are 1-based so the zeroed matrix is "untouched"
		for _, y := range e.graph.Neighbors(int(x)) {
			br := bLookup[y]
			if br < 0 {
				continue
			}
			bPos := bp.Pos[bp.Offsets[br]:bp.Offsets[br+1]]
			bW := b.weight[bp.Offsets[br]:bp.Offsets[br+1]]
			if len(bPos) > 0 && aStart < aEnd {
				if int(bPos[0]) < colLo {
					colLo = int(bPos[0])
				}
				if int(bPos[len(bPos)-1]) > colHi {
					colHi = int(bPos[len(bPos)-1])
				}
			}
			for ai := aStart; ai < aEnd; ai++ {
				wa := q.weight[ai]
				pa := qp.Pos[ai]
				if !rowMark[pa] {
					rowMark[pa] = true
					touched = append(touched, pa)
				}
				base := int(pa) * m
				row := mat[base : base+m]
				// Evidence counts are only ever read at query-eligible
				// rows, so the stamp/count bookkeeping is skipped for
				// rows the cell filter can never accept — the float
				// accumulation itself is identical either way.
				if !s.trackEvid || !qEligible[pa] {
					for bi, pb := range bPos {
						row[pb] += wa * bW[bi]
					}
					continue
				}
				erow := evid[base : base+m]
				srow := stamp[base : base+m]
				for bi, pb := range bPos {
					row[pb] += wa * bW[bi]
					// Count each evidence protein X once per cell.
					if srow[pb] != xStamp {
						srow[pb] = xStamp
						erow[pb]++
					}
				}
			}
		}
	}
	s.touched = touched
	s.colLo, s.colHi = colLo, colHi
	raw := s.topSpecificity(q, b, n, m)
	s.reset(n, m)
	return raw / (raw + e.cfg.ScoreScale)
}

// topSpecificity smooths the count matrix, normalizes each cell by the
// smoothed occurrence product, and returns the mean of the top TopFrac
// cells.
func (s *Scorer) topSpecificity(q, b *Query, n, m int) float64 {
	e := s.e
	r := e.cfg.FilterRadius
	if e.cfg.Unfiltered {
		r = 0
	}
	// The normalization denominator is separable: the neighborhood sum of
	// occA[i]*occB[j] equals boxSum(occA)[i] * boxSum(occB)[j]. Both box
	// sums are precomputed per Query (boxOcc), not per call.
	sumA, sumB := q.boxOcc, b.boxOcc

	support := float32(e.cfg.CellSupport)
	alpha := e.cfg.Pseudocount
	minEvid := uint16(e.cfg.MinEvidence)

	// Cells outside the touched rows and columns hold no mass — only the
	// cancellation residue of incremental box-sum arithmetic — and their
	// evidence counts are zero. The sweep below confines all per-cell
	// work to the touched span when that is provably equivalent to the
	// seed kernel's full sweep: either (a) the evidence floor already
	// rejects every evid==0 cell, or (b) the support threshold exceeds
	// the worst-case residue: at most 2*len(touched) ops, each
	// contributing under one ulp of the largest partial sum, itself at
	// most (2r+2)*maxRowMass (mat is non-negative, so a row's total mass
	// dominates every box sum over it). The 2^-21 factor is float32's
	// half-ulp (2^-24) with an 8x margin that also absorbs the rounding
	// of the mass sums themselves. If neither holds (support <= 0 with
	// no evidence floor), every cell is visited exactly like the seed
	// kernel.
	mat, horiz := s.mat, s.horiz
	sparseSafe := minEvid > 0
	if !sparseSafe && s.colHi >= s.colLo {
		var maxRowMass float32
		for _, t := range s.touched {
			row := mat[int(t)*m+s.colLo : int(t)*m+s.colHi+1]
			var mass float32
			for _, v := range row {
				mass += v
			}
			if mass > maxRowMass {
				maxRowMass = mass
			}
		}
		resBound := float64(2*len(s.touched)+2) * float64(2*r+2) * float64(maxRowMass) / (1 << 21)
		sparseSafe = float64(support) > resBound
	} else if !sparseSafe {
		sparseSafe = support > 0 // nothing landed; residue is exactly zero
	}
	lo, hi := 0, m
	if sparseSafe {
		if s.colHi < s.colLo {
			lo, hi = 0, 0
		} else {
			if lo = s.colLo - r; lo < 0 {
				lo = 0
			}
			if hi = s.colHi + r + 1; hi > m {
				hi = m
			}
		}
	}
	s.spanLo, s.spanHi = lo, hi

	// Horizontal box sums of the count matrix: touched rows, spanned
	// columns. An untouched row is identically zero, so the incremental
	// pass the seed kernel ran over it produced exactly +0 everywhere —
	// which is what the scratch invariant already guarantees those horiz
	// rows contain. Within a touched row, the accumulator entering
	// column lo is rebuilt by the same ascending adds the seed pass
	// performed (every skipped term is exactly +0, a bitwise no-op), and
	// the loop is split at the filter-window boundaries so the interior
	// runs branch-free; the float op sequence is unchanged throughout.
	for _, t := range s.touched {
		row := mat[int(t)*m : int(t)*m+m]
		out := horiz[int(t)*m : int(t)*m+m]
		var acc float32
		for u := lo - r; u <= lo+r && u < m; u++ {
			if u >= 0 {
				acc += row[u]
			}
		}
		j := lo
		for ; j < r && j < hi; j++ {
			out[j] = acc
			if j+r+1 < m {
				acc += row[j+r+1]
			}
		}
		for ; j+r+1 < m && j < hi; j++ {
			out[j] = acc
			acc += row[j+r+1]
			acc -= row[j-r]
		}
		for ; j < hi; j++ {
			out[j] = acc
			acc -= row[j-r]
		}
	}

	// Vertical accumulation plus top-K selection via a bounded min-heap.
	k := int(e.cfg.TopFrac * float64(n*m))
	if k < 1 {
		k = 1
	}
	if cap(s.top) < k {
		s.top = make([]float64, 0, k)
	}
	top := s.top[:0]
	if cap(s.colAcc) < m {
		s.colAcc = make([]float32, m)
	}
	colAcc := s.colAcc[:m]
	// The per-cell scan below visits only target-eligible columns (b's
	// precomputed eligCols, trimmed to the span): an ineligible column
	// fails the cell filter no matter what colAcc holds, so skipping it
	// is pure selection — no float op changes and the push order over
	// surviving cells is the ascending order the full sweep used. The
	// vertical accumulation itself stays span-wide: sequential adds
	// vectorize well enough that compacting them buys nothing.
	cols := b.eligCols
	for len(cols) > 0 && int(cols[0]) < lo {
		cols = cols[1:]
	}
	for len(cols) > 0 && int(cols[len(cols)-1]) >= hi {
		cols = cols[:len(cols)-1]
	}
	for j := lo; j < hi; j++ {
		colAcc[j] = 0
	}
	// The seed kernel slides colAcc down all n rows, adding row i+r+1 and
	// subtracting row i-r at each step. Adding or subtracting an
	// untouched (all +0) horiz row is a bitwise no-op, so only touched
	// rows are applied — the float op sequence, and therefore every
	// rounding decision, is the exact subsequence the full sweep
	// performed. inWin counts touched rows inside the current filter
	// window.
	rowMark := s.rowMark
	inWin := 0
	for i := 0; i <= r && i < n; i++ {
		if rowMark[i] {
			inWin++
			hrow := horiz[i*m+lo : i*m+hi]
			dst := colAcc[lo:hi]
			for j, h := range hrow {
				dst[j] += h
			}
		}
	}
	// eligible folds the occurrence-count and positive-denominator
	// clauses of the cell filter into one precomputed byte per window;
	// a row whose query side is ineligible cannot push any cell, with
	// or without the sparse sweep. The filter is pure selection —
	// dropping always-true clauses changes no float op and no push
	// order.
	qElig := q.eligible
	evid := s.evid
	for i := 0; i < n; i++ {
		if (!sparseSafe || inWin > 0) && qElig[i] {
			sa := sumA[i]
			base := i * m
			if minEvid == 0 {
				for _, j := range cols {
					cnt := colAcc[j]
					if cnt >= support {
						v := float64(cnt) / (sa*sumB[j] + alpha)
						if v > 1 {
							v = 1
						}
						if len(top) < k || v > top[0] {
							top = heapPush(top, v, k)
						}
					}
				}
			} else {
				for _, j := range cols {
					cnt := colAcc[j]
					if cnt >= support && evid[base+int(j)] >= minEvid {
						v := float64(cnt) / (sa*sumB[j] + alpha)
						if v > 1 {
							v = 1
						}
						if len(top) < k || v > top[0] {
							top = heapPush(top, v, k)
						}
					}
				}
			}
		}
		if a := i + r + 1; a < n && rowMark[a] {
			inWin++
			hrow := horiz[a*m+lo : a*m+hi]
			dst := colAcc[lo:hi]
			for j, h := range hrow {
				dst[j] += h
			}
		}
		if d := i - r; d >= 0 && rowMark[d] {
			inWin--
			hrow := horiz[d*m+lo : d*m+hi]
			dst := colAcc[lo:hi]
			for j, h := range hrow {
				dst[j] -= h
			}
		}
	}
	s.top = top
	if len(top) == 0 {
		return 0
	}
	// Cells below the support threshold count as zeros in the mean so the
	// score reflects both strength and extent of the signal.
	total := 0.0
	for _, v := range top {
		total += v
	}
	return total / float64(k)
}

// boxSum1D returns box sums of radius r over occ (zero-padded), as floats.
func boxSum1D(occ []float32, n, r int) []float64 {
	return boxSum1DInto(nil, occ, n, r)
}

// boxSum1DInto is boxSum1D writing into dst (grown as needed), so the
// hot path reuses Scorer scratch instead of allocating twice per call.
func boxSum1DInto(dst []float64, occ []float32, n, r int) []float64 {
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	var acc float64
	for i := 0; i <= r && i < n; i++ {
		acc += float64(occ[i])
	}
	for i := 0; i < n; i++ {
		dst[i] = acc
		if i+r+1 < n {
			acc += float64(occ[i+r+1])
		}
		if i-r >= 0 {
			acc -= float64(occ[i-r])
		}
	}
	return dst
}

// heapPush maintains h as a min-heap of at most k largest values.
func heapPush(h []float64, v float64, k int) []float64 {
	if len(h) < k {
		h = append(h, v)
		// Sift up.
		i := len(h) - 1
		for i > 0 {
			p := (i - 1) / 2
			if h[p] <= h[i] {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		return h
	}
	if v <= h[0] {
		return h
	}
	h[0] = v
	// Sift down.
	i := 0
	for {
		l, rr := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && h[l] < h[smallest] {
			smallest = l
		}
		if rr < len(h) && h[rr] < h[smallest] {
			smallest = rr
		}
		if smallest == i {
			return h
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// Score computes PIPE(query, protein bID), building the query context
// with nThreads workers. Convenience wrapper; batch callers should reuse
// a Query and Scorer.
func (e *Engine) Score(q seq.Sequence, bID, nThreads int) float64 {
	scorer := e.AcquireScorer()
	defer e.ReleaseScorer(scorer)
	return scorer.Score(e.NewQuery(q, nThreads), bID)
}

// ScorePair computes PIPE between two natural proteins using the
// precomputed database contexts.
func (e *Engine) ScorePair(aID, bID int) float64 {
	scorer := e.AcquireScorer()
	defer e.ReleaseScorer(scorer)
	return scorer.Score(e.db[aID], bID)
}

// ScoreMany computes PIPE(query, id) for every id in ids, splitting the
// per-protein predictions across nThreads goroutines — the "all-workers"
// inner loop of Algorithm 2. The query context is built once (also in
// parallel) and shared read-only by all threads, mirroring the paper's
// shared sequence_similarity structure.
func (e *Engine) ScoreMany(q seq.Sequence, ids []int, nThreads int) []float64 {
	if nThreads <= 0 {
		nThreads = runtime.GOMAXPROCS(0)
	}
	return e.ScoreQueries([]*Query{e.NewQuery(q, nThreads)}, ids, nThreads)[0]
}

// AcceptanceThreshold returns the score threshold whose false-positive
// rate on the supplied negative-pair scores is at most fpRate (e.g.
// 0.005 for the paper's "<0.5%" operating point). Scores are copied and
// sorted; the threshold is the smallest score exceeded by at most fpRate
// of the negatives.
func AcceptanceThreshold(negativeScores []float64, fpRate float64) float64 {
	if len(negativeScores) == 0 {
		return 1
	}
	s := append([]float64(nil), negativeScores...)
	sort.Float64s(s)
	k := int(float64(len(s)) * (1 - fpRate))
	if k >= len(s) {
		k = len(s) - 1
	}
	if k < 0 {
		k = 0
	}
	return s[k]
}
