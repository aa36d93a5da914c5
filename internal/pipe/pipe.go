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
//
// Scorer.Score is that definition computed narrowly. A cell needs at
// least one evidence protein (New rejects a Config that says otherwise),
// and evidence only arises at query windows and target windows that pass
// the per-window gates, so the smoothed matrix is built for those cells
// alone: rows some known edge touched, columns eligible on the target
// side. Evidence comes before mass: Score counts every cell's evidence
// proteins first, and with no cell at the evidence floor returns 0
// having added no co-occurrence mass at all. Otherwise it adds mass only
// to the rows and columns the smoothing of a floor cell reads — up to the
// last floor row and the last floor column, each plus the filter radius
// — and smooths only the rows and columns a floor cell reads. Every
// smoothed cell still receives the float operations of the full sweep in
// the full sweep's order — scores are bit-identical to the reference
// kernel kept in golden_test.go (DESIGN.md section 5.1).
package pipe

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/ppigraph"
	"repro/internal/seq"
	"repro/internal/simindex"
	"repro/internal/submat"
)

// Config controls scoring. The zero value gets sensible defaults; New
// returns an error for values outside the documented ranges.
type Config struct {
	// Index configures window similarity search (window size, PAM120
	// threshold, seeding).
	Index simindex.Config
	// CellSupport is the minimum smoothed weighted co-occurrence mass for
	// a cell to contribute to the score (suppresses single-edge
	// coincidences while letting weak graded evidence through, which is
	// what gives the genetic algorithm its early gradient). Default 0.5;
	// NaN is an error.
	CellSupport float64
	// FilterRadius is the box-filter radius (1 means a 3x3 neighborhood).
	// Default 1; negative is an error. Set Unfiltered to disable smoothing
	// instead.
	FilterRadius int
	// Unfiltered disables the box filter (ablation).
	Unfiltered bool
	// TopFrac is the fraction of result-matrix cells (by value, after
	// smoothing and normalization) averaged into the raw score.
	// Default 0.01 (at least one cell); must lie in (0, 1].
	TopFrac float64
	// ScoreScale is the raw specificity at which the score reaches 0.5;
	// the score is raw/(raw+ScoreScale). Default 0.08; must be positive.
	ScoreScale float64
	// Pseudocount shrinks the specificity of weakly-occurring fragment
	// pairs: cell value = count / (occProduct + Pseudocount). Default 60;
	// negative is an error.
	Pseudocount float64
	// MinOcc is the minimum number of distinct proteome proteins each
	// fragment of a cell must be similar to. Requiring >= 2 is the heart
	// of PIPE: evidence must be a *co-occurring* fragment pair, conserved
	// across multiple proteins on both sides, not a fluke similarity to a
	// single protein's unique region. Default 2; at least 1.
	MinOcc int
	// MinEvidence is the minimum number of distinct query-side evidence
	// proteins X (over known edges (X, Y)) whose co-occurrences support a
	// cell. It closes the remaining single-protein loophole MinOcc leaves
	// open: one strong background match to a single well-connected
	// protein cannot carry a prediction by itself. Default 2; 1 to 65535
	// (1 asks only that some known edge supports the cell).
	MinEvidence int
	// WeightScale grades similarity hits: a hit at exactly the window
	// threshold weighs ~0, one scoring Threshold+WeightScale or better
	// weighs 1. Graded weights (the "similarity-weighted" PIPE variant)
	// reward high-fidelity fragment matches, giving the genetic algorithm
	// pressure toward strongly binding motifs. Default 40; must be
	// positive.
	WeightScale float64
	// WeightCap bounds weights; values above 1 let matches far above
	// threshold keep gaining weight (an ablation knob — the default 1
	// saturates at Threshold+WeightScale, which bootstraps the GA best).
	// Must be positive.
	WeightCap float64
}

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

// validate rejects, after defaults, the values the kernel has no
// meaning for: the evidence counter has at most 16 bit-planes and the
// sweep relies on a floor of at least one, a box needs a non-negative
// radius, the score transforms divide by the two scales, a non-negative
// pseudocount keeps every cell's denominator positive (so no cell value
// is NaN), and a NaN CellSupport or a non-positive WeightCap would
// silently score every pair 0 or weigh every hit at the 0.02 floor.
func (c Config) validate() error {
	switch {
	case c.FilterRadius < 0:
		return fmt.Errorf("pipe: FilterRadius %d is negative", c.FilterRadius)
	case c.MinEvidence < 1 || c.MinEvidence > math.MaxUint16:
		return fmt.Errorf("pipe: MinEvidence %d outside [1, %d]", c.MinEvidence, math.MaxUint16)
	case c.MinOcc < 1:
		return fmt.Errorf("pipe: MinOcc %d is below 1", c.MinOcc)
	case !(c.TopFrac > 0 && c.TopFrac <= 1):
		return fmt.Errorf("pipe: TopFrac %v outside (0, 1]", c.TopFrac)
	case !(c.ScoreScale > 0):
		return fmt.Errorf("pipe: ScoreScale %v is not positive", c.ScoreScale)
	case !(c.Pseudocount >= 0):
		return fmt.Errorf("pipe: Pseudocount %v is negative", c.Pseudocount)
	case !(c.WeightScale > 0):
		return fmt.Errorf("pipe: WeightScale %v is not positive", c.WeightScale)
	case math.IsNaN(c.CellSupport):
		return fmt.Errorf("pipe: CellSupport is NaN")
	case !(c.WeightCap > 0):
		return fmt.Errorf("pipe: WeightCap %v is not positive", c.WeightCap)
	}
	return nil
}

// Engine scores protein pairs against a fixed proteome and interaction
// graph. Its scores are fixed at construction and it is safe for
// concurrent use; per-call scratch space lives in Scorer values (reused
// via AcquireScorer).
type Engine struct {
	cfg     Config
	graph   *ppigraph.Graph
	index   *simindex.Index
	db      []dbEntry // query context per natural protein, built on first read
	scorers sync.Pool // *Scorer reuse across batch calls

	// winTable is the natural proteome's window table, the one copy of
	// the similarity database the engine holds: built before the engine
	// and never changed after. deltaQueries/deltaReused count
	// incremental profile builds and the windows they lifted from
	// parents; dbBuilt counts the database entries built so far. All
	// are concurrency-safe; none affect scores.
	winTable     *simindex.WindowCache
	deltaQueries atomic.Int64
	deltaReused  atomic.Int64
	dbBuilt      atomic.Int64
}

// dbEntry is one natural protein's database entry: its target-side
// query context, assembled from the window table by the first read
// (Engine.DBQuery) and shared read-only after.
type dbEntry struct {
	once sync.Once
	q    *Query
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
	// boxOcc and eligIdx are derived from occCount/occW at the engine's
	// effective filter radius, once per query instead of once per Score
	// call. boxOcc is the smoothed-occurrence normalization vector. A
	// window i is eligible when it passes the per-window clauses of the
	// cell filter (occCount[i] >= MinOcc && boxOcc[i] > 0): eligIdx[i] is
	// i's rank among the eligible windows, or -1.
	boxOcc  []float64
	eligIdx []int32
	// lookup, eligCols and eligBoxOcc are read on the target side of a
	// Score call only, so only database entries carry them (nil on a
	// candidate). lookup maps protein ID -> row in prof, -1 if absent
	// (len = proteome size); eligCols lists the eligible windows,
	// ascending; eligBoxOcc is boxOcc at eligCols. A target's eligible
	// windows are the only columns the kernel counts evidence in or
	// stores filter sums at: an ineligible column can never pass the cell
	// filter, so dropping it is pure selection, and the ~20-30% that
	// remain are walked contiguously.
	lookup     []int32
	eligCols   []int32
	eligBoxOcc []float64
}

// Profile returns the query's CSR similarity profile (shared; read-only).
func (q *Query) Profile() simindex.FlatProfile { return q.prof }

// New builds an engine over the proteome and interaction graph. The i-th
// protein must be the graph vertex with ID i (matched by name). The
// per-protein similarity database — the preprocessing the paper performs
// "offline, beforehand, for the known natural proteins" — is one
// symmetric proteome search (simindex.Index.ProteomeTable, which scores
// each similar window pair once) across nThreads (<= 0 means
// GOMAXPROCS), kept as the engine's window table; a protein's database
// entry is assembled from it when a call first reads it.
func New(proteins []seq.Sequence, g *ppigraph.Graph, cfg Config, nThreads int) (*Engine, error) {
	cfg, ix, err := prepare(proteins, g, cfg)
	if err != nil {
		return nil, err
	}
	return newEngine(cfg, g, ix, ix.ProteomeTable(nThreads)), nil
}

// NewFromProfiles builds an engine like New but from precomputed CSR
// similarity profiles (one per protein, aligned with the proteome) —
// the payload a persisted database or a distributed Setup broadcast
// carries, sparing the receiver the similarity search. Every profile is
// checked against the proteome (simindex.FlatProfile.Check) before
// anything is built: profiles come from outside the process, and a
// fingerprint match vouches for the proteome and config, not for them.
func NewFromProfiles(proteins []seq.Sequence, g *ppigraph.Graph, cfg Config, profiles []simindex.FlatProfile) (*Engine, error) {
	if len(profiles) != len(proteins) {
		return nil, fmt.Errorf("pipe: %d profiles for %d proteins", len(profiles), len(proteins))
	}
	cfg, ix, err := prepare(proteins, g, cfg)
	if err != nil {
		return nil, err
	}
	for i, p := range proteins {
		if err := profiles[i].Check(len(proteins), max(p.NumWindows(cfg.Index.Window), 0)); err != nil {
			return nil, fmt.Errorf("pipe: profile of protein %d (%s): %w", i, p.Name(), err)
		}
	}
	return newEngine(cfg, g, ix, ix.NewWindowCache(profiles)), nil
}

// prepare applies defaults to cfg, validates it and the proteome's
// alignment with the graph, and builds the window index.
func prepare(proteins []seq.Sequence, g *ppigraph.Graph, cfg Config) (Config, *simindex.Index, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return cfg, nil, err
	}
	if g.NumProteins() != len(proteins) {
		return cfg, nil, fmt.Errorf("pipe: %d proteins but graph has %d vertices", len(proteins), g.NumProteins())
	}
	for i, p := range proteins {
		if g.Name(i) != p.Name() {
			return cfg, nil, fmt.Errorf("pipe: protein %d is %q but graph vertex %d is %q", i, p.Name(), i, g.Name(i))
		}
	}
	ix, err := simindex.Build(proteins, cfg.Index)
	return cfg, ix, err
}

// newEngine is the one construction both entry points end in, over
// the window table of the proteome ix indexes. It builds no database
// entry: DBQuery does, on first read.
func newEngine(cfg Config, g *ppigraph.Graph, ix *simindex.Index, table *simindex.WindowCache) *Engine {
	e := &Engine{
		cfg:      cfg,
		graph:    g,
		index:    ix,
		db:       make([]dbEntry, ix.NumProteins()),
		winTable: table,
	}
	e.scorers.New = func() any { return &Scorer{e: e} }
	return e
}

// Config returns the effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// Graph returns the interaction graph the engine mines.
func (e *Engine) Graph() *ppigraph.Graph { return e.graph }

// Index returns the underlying window-similarity index.
func (e *Engine) Index() *simindex.Index { return e.index }

// DBQuery returns the query context of natural protein id — its
// database entry — assembling it from the window table on the first
// call for id; every later call, from any goroutine, returns the same
// entry.
func (e *Engine) DBQuery(id int) *Query {
	d := &e.db[id]
	d.once.Do(func() {
		d.q = e.newQueryFromProfile(e.index.Protein(id), e.winTable.Profile(id), true)
		e.dbBuilt.Add(1)
	})
	return d.q
}

// DBProfiles returns the per-protein CSR similarity profiles, assembled
// from the window table — the broadcastable form of the offline
// database a distributed master ships so workers skip the similarity
// search. Each call builds a full copy of the database beside the
// table.
func (e *Engine) DBProfiles() []simindex.FlatProfile {
	return e.winTable.Profiles(0)
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

// newQueryFromProfile derives a sequence's scoring context from its
// profile. target says the query will be scored against (a database
// entry): only then are the target-side vectors built.
func (e *Engine) newQueryFromProfile(s seq.Sequence, prof simindex.FlatProfile, target bool) *Query {
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
	}
	if target {
		q.lookup = make([]int32, e.index.NumProteins())
		for i := range q.lookup {
			q.lookup[i] = -1
		}
	}
	// CSR rows are ID-sorted and positions ascend within a row, so this
	// single linear pass accumulates the weighted occupancy in exactly the
	// sorted order the determinism invariant requires: float sums are
	// identical across processes (and to the previous map-based layout).
	for r, id := range prof.IDs {
		if target {
			q.lookup[id] = int32(r)
		}
		for j := prof.Offsets[r]; j < prof.Offsets[r+1]; j++ {
			w := e.weightOf(prof.Score[j])
			q.weight[j] = w
			q.occCount[prof.Pos[j]]++
			q.occW[prof.Pos[j]] += w
		}
	}
	q.boxOcc = boxSum1D(q.occW, nw, e.radius())
	q.eligIdx = make([]int32, nw)
	minOcc, ne := int32(e.cfg.MinOcc), int32(0)
	for i := range q.eligIdx {
		q.eligIdx[i] = -1
		if q.occCount[i] >= minOcc && q.boxOcc[i] > 0 {
			q.eligIdx[i] = ne
			ne++
			if target {
				q.eligCols = append(q.eligCols, int32(i))
				q.eligBoxOcc = append(q.eligBoxOcc, q.boxOcc[i])
			}
		}
	}
	return q
}

// NewQuery preprocesses an arbitrary (usually synthetic) sequence for
// scoring, building its similarity profile with nThreads workers
// (<= 0 means GOMAXPROCS).
func (e *Engine) NewQuery(s seq.Sequence, nThreads int) *Query {
	return e.newQueryFromProfile(s, e.index.SequenceSimilarity(s, nThreads), false)
}

// Scorer holds reusable scratch space for result-matrix computation.
// A Scorer is not safe for concurrent use; create one per goroutine (or
// borrow one with Engine.AcquireScorer).
//
// Only mat is as large as the result matrix; evid holds a few bits per
// (query window, target-eligible window). Both are all-zero between
// calls: Score records which rows it dirties and reset clears those
// (colMask, also all-zero between calls, Score clears as it goes).
// Everything else is narrow and is written before it is read within a
// call, so it carries no invariant: filt holds one row per touched row
// the vertical slide reads and one column per target-eligible column from
// the first to the last column at the evidence floor.
type Scorer struct {
	e   *Engine
	mat []float32 // n x m co-occurrence mass
	// evid counts the distinct evidence proteins of each (row, eligible
	// column) cell up to MinEvidence and no further, as bit-planes: the
	// counter of column c of row i is bit c%64 of the planes words
	// evid[(i*nw+c/64)*planes:][:planes], least significant plane first
	// (nw = ceil(ne/64), planes = bits.Len(MinEvidence)).
	evid    []uint64
	colMask []uint64  // nw words: eligible columns the current evidence protein reaches
	filt    []float32 // touched x eligible-in-span horizontal box sums
	zeroRow []float32 // all-zero row padding the last chain group
	colAcc  []float32 // vertical box sums at the current row, as wide as filt
	xRows   []int32   // query-profile rows of the evidence proteins whose mass lands
	blocks  []massBlock
	top     []float64
	touched []int32 // result-matrix rows dirtied by the current call
	rowSlot []int32 // row -> 1 + its index in touched; 0 when untouched
}

// massBlock is the cut target-profile block of one neighbor Y of the
// evidence protein being scattered: positions ascending, weights
// parallel. Score holds at most one per neighbor.
type massBlock struct {
	pos []int32
	w   []float32
}

// chainWidth is the number of touched rows the horizontal box filter
// advances together: each row is its own loop-carried add/subtract
// chain, so chainWidth of them keep that many independent float adds in
// flight (EXPERIMENTS.md, "Kernel chain width", measured 1, 2, 4, 8).
const chainWidth = 4

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

// grow sizes the scratch for an n x m result matrix whose evidence rows
// are ew words over nw-word column masks. Fresh allocations are already
// zero (make zeroes); reused mat/evid/colMask/rowSlot capacity is
// all-zero by the reset invariant and zeroRow is never written.
func (s *Scorer) grow(n, m, nw, ew int) {
	s.mat = sized(s.mat, n*m)
	s.evid = sized(s.evid, n*ew)
	s.colMask = sized(s.colMask, nw)
	s.rowSlot = sized(s.rowSlot, n)
	s.zeroRow = sized(s.zeroRow, m)
	s.touched = s.touched[:0]
	s.xRows = s.xRows[:0]
}

// sized returns buf resliced to n elements, or a new zeroed slice when
// its capacity is too small. Old contents are not carried over.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// reset restores the all-zero invariant of mat, evid and rowSlot after
// a call that counted evidence in the touched rows of an n-row matrix
// whose evidence rows are ew words, and scattered mass into columns
// [colLo, colHi] of the first read of them (m columns a row). Mass is
// cleared row by row, evidence the same way in sparse calls; above half
// density a straight bulk clear of evid is cheaper than chasing rows.
func (s *Scorer) reset(n, m, ew, read, colLo, colHi int) {
	for _, r := range s.touched[:read] {
		clear(s.mat[int(r)*m+colLo : int(r)*m+colHi+1])
	}
	if len(s.touched)*2 >= n {
		clear(s.evid)
	} else {
		for _, r := range s.touched {
			clear(s.evid[int(r)*ew : int(r)*ew+ew])
		}
	}
	for _, r := range s.touched {
		s.rowSlot[r] = 0
	}
}

// atFloor returns the columns of one evidence word whose counter has
// reached minEvid. A counter never passes minEvid, so it equals minEvid
// exactly when it has all of minEvid's one bits.
func atFloor(planes []uint64, minEvid uint) uint64 {
	full := ^uint64(0)
	for p, v := range planes {
		if minEvid>>p&1 != 0 {
			full &= v
		}
	}
	return full
}

// Score computes PIPE(query, natural protein bID) in [0,1].
func (s *Scorer) Score(q *Query, bID int) float64 {
	e := s.e
	w := e.cfg.Index.Window
	b := e.DBQuery(bID)
	n := q.Seq.NumWindows(w)
	m := b.Seq.NumWindows(w)
	ne := len(b.eligCols)
	if n <= 0 || ne == 0 {
		return 0 // no cell can pass the filter
	}
	minEvid := uint(e.cfg.MinEvidence)
	nw, planes := (ne+63)/64, bits.Len(minEvid)
	ew := nw * planes
	s.grow(n, m, nw, ew)
	colLo, colHi := s.accumulate(q, b, m, planes, minEvid)
	if colHi < colLo {
		return 0 // nothing landed, nothing to reset
	}
	// Only a cell at the evidence floor can reach the heap, and it needs
	// MinEvidence evidence proteins: with no such cell the score is 0 and
	// no mass is scattered. Otherwise mass goes only where the smoothing
	// of the floor cells reads it (topSpecificity): rows up to the last
	// floor row + r, columns up to the last floor column + r.
	raw, read, hi := 0.0, 0, colHi
	if len(s.xRows) >= int(minEvid) {
		if lastRow, f0, f1 := s.floorBounds(q, planes, minEvid); lastRow >= 0 {
			r := e.radius()
			hi = min(colHi, int(b.eligCols[f1-1])+r)
			read = s.scatter(q, b, m, lastRow+r, hi)
			raw = s.topSpecificity(q, b, n, m, colLo, read, lastRow, f0, f1)
		}
	}
	s.reset(n, m, ew, read, colLo, hi)
	return raw / (raw + e.cfg.ScoreScale)
}

// radius is the box filter's effective radius: 0 when unfiltered.
func (e *Engine) radius() int {
	if e.cfg.Unfiltered {
		return 0
	}
	return e.cfg.FilterRadius
}

// accumulate is the evidence pass over (q, b): it counts the evidence
// in evid, marks the rows the mass of (q, b) lands in as touched, records
// in xRows the query-profile rows of the evidence proteins X whose mass
// lands, and returns the columns [colLo, colHi] it lands in (colHi <
// colLo when none does). For every known edge (X, Y) with query-similar
// windows on X and target-similar windows on Y, the product of the two
// similarity weights belongs in all (i, j) combinations; scatter adds
// it. Iterating X over the query profile and Y over X's graph neighbors
// covers both orientations of each undirected edge.
func (s *Scorer) accumulate(q, b *Query, m, planes int, minEvid uint) (colLo, colHi int) {
	e := s.e
	evid, rowSlot, colMask := s.evid, s.rowSlot, s.colMask
	ew := len(colMask) * planes
	qp, bp := &q.prof, &b.prof
	// bPos rows are position-sorted, so each block updates the span in
	// O(1).
	colLo, colHi = m, -1
	for r, x := range qp.IDs {
		landed := false
		for _, y := range e.graph.Neighbors(int(x)) {
			br := b.lookup[y]
			if br < 0 {
				continue
			}
			bPos := bp.Pos[bp.Offsets[br]:bp.Offsets[br+1]]
			if len(bPos) == 0 {
				continue
			}
			landed = true
			colLo = min(colLo, int(bPos[0]))
			colHi = max(colHi, int(bPos[len(bPos)-1]))
			// The target-eligible columns X reaches through any of its
			// neighbors, as a set: X counts once per cell however many Y
			// lead there, and only eligible columns are ever read.
			for _, pb := range bPos {
				if c := b.eligIdx[pb]; c >= 0 {
					colMask[c>>6] |= 1 << (c & 63)
				}
			}
		}
		if !landed {
			continue
		}
		s.xRows = append(s.xRows, int32(r))
		// Evidence: X supports every cell of (its eligible rows) x (the
		// column mask). Each row takes the mask as one ripple-carry
		// increment per word, withheld from the columns already at the
		// floor; a column below it cannot carry out of the top plane.
		// Integer counts, so order is immaterial.
		for _, pa := range qp.Pos[qp.Offsets[r]:qp.Offsets[r+1]] {
			if rowSlot[pa] == 0 {
				s.touched = append(s.touched, pa)
				rowSlot[pa] = int32(len(s.touched))
			}
			if q.eligIdx[pa] < 0 {
				continue
			}
			erow := evid[int(pa)*ew:][:ew]
			for mw, cols := range colMask {
				if cols == 0 {
					continue
				}
				word := erow[mw*planes:][:planes]
				carry := cols &^ atFloor(word, minEvid)
				for p := 0; carry != 0; p++ {
					word[p], carry = word[p]^carry, word[p]&carry
				}
			}
		}
		clear(colMask)
	}
	return colLo, colHi
}

// scatter is the mass pass: it adds the co-occurrence mass of every X
// accumulate recorded to the cells of mat in rows up to rowCut and
// columns up to colCut, moves the touched rows up to rowCut to the front
// of touched (reset still clears evidence in every touched row) and
// returns how many there are. It walks X's neighbors in accumulate's
// order and cuts the position-sorted query rows and target blocks by
// slicing, so a cell inside the cut receives every add it would without
// one, in the same (X, Y, position) order: the CSR rows are ID-sorted,
// so that is the order of the seed kernel's sorted-key iteration.
func (s *Scorer) scatter(q, b *Query, m, rowCut, colCut int) (read int) {
	e := s.e
	mat, blocks := s.mat, s.blocks
	qp, bp := &q.prof, &b.prof
	touched, rowSlot := s.touched, s.rowSlot
	for t, row := range touched {
		if int(row) <= rowCut {
			touched[t], touched[read] = touched[read], row
			rowSlot[row] = int32(read + 1)
			read++
		}
	}
	for _, r := range s.xRows {
		lo, hi := qp.Offsets[r], qp.Offsets[r+1]
		aPos := qp.Pos[lo:hi]
		aPos = aPos[:upTo(aPos, rowCut)]
		if len(aPos) == 0 {
			continue
		}
		aW := q.weight[lo:hi][:len(aPos)]
		blocks = blocks[:0]
		for _, y := range e.graph.Neighbors(int(qp.IDs[r])) {
			br := b.lookup[y]
			if br < 0 {
				continue
			}
			off := bp.Offsets[br]
			bPos := bp.Pos[off:bp.Offsets[br+1]]
			if k := upTo(bPos, colCut); k > 0 {
				blocks = append(blocks, massBlock{bPos[:k], b.weight[off:][:k]})
			}
		}
		// Four query rows per pass over X's blocks. Rows are independent,
		// and within a row the blocks and their entries are walked front
		// to back.
		ai := 0
		for ; ai+3 < len(aPos); ai += 4 {
			wa0, wa1, wa2, wa3 := aW[ai], aW[ai+1], aW[ai+2], aW[ai+3]
			row0 := mat[int(aPos[ai])*m:][:m]
			row1 := mat[int(aPos[ai+1])*m:][:m]
			row2 := mat[int(aPos[ai+2])*m:][:m]
			row3 := mat[int(aPos[ai+3])*m:][:m]
			for _, bl := range blocks {
				xW := bl.w[:len(bl.pos)]
				for bi, pb := range bl.pos {
					wb := xW[bi]
					row0[pb] += wa0 * wb
					row1[pb] += wa1 * wb
					row2[pb] += wa2 * wb
					row3[pb] += wa3 * wb
				}
			}
		}
		for ; ai < len(aPos); ai++ {
			wa := aW[ai]
			row := mat[int(aPos[ai])*m:][:m]
			for _, bl := range blocks {
				xW := bl.w[:len(bl.pos)]
				for bi, pb := range bl.pos {
					row[pb] += wa * xW[bi]
				}
			}
		}
	}
	s.blocks = blocks
	return read
}

// upTo returns how many of the ascending positions are at most lim.
func upTo(pos []int32, lim int) int {
	if len(pos) == 0 || int(pos[len(pos)-1]) <= lim {
		return len(pos)
	}
	k, _ := slices.BinarySearch(pos, int32(lim+1))
	return k
}

// floorBounds returns the last touched row holding a cell at the
// evidence floor and the eligible columns [f0, f1) from the first to the
// last column any row holds one at, or lastRow -1 when there is none.
// colMask, all-zero on entry, gathers the floor columns and is left
// all-zero.
func (s *Scorer) floorBounds(q *Query, planes int, minEvid uint) (lastRow, f0, f1 int) {
	colMask := s.colMask
	ew := len(colMask) * planes
	lastRow, f0 = -1, -1
	for _, pa := range s.touched {
		if q.eligIdx[pa] < 0 {
			continue
		}
		erow := s.evid[int(pa)*ew:][:ew]
		var hit uint64
		for mw := range colMask {
			full := atFloor(erow[mw*planes:][:planes], minEvid)
			colMask[mw] |= full
			hit |= full
		}
		if hit != 0 {
			lastRow = max(lastRow, int(pa))
		}
	}
	for mw, cols := range colMask {
		if cols != 0 {
			if f0 < 0 {
				f0 = mw<<6 + bits.TrailingZeros64(cols)
			}
			f1 = mw<<6 + 64 - bits.LeadingZeros64(cols)
		}
	}
	clear(colMask)
	return lastRow, f0, f1
}

// topSpecificity smooths the count matrix, normalizes each cell by the
// smoothed occurrence product, and returns the mean of the top TopFrac
// cells. Mass lies from column colLo on in the first read touched rows,
// those up to lastRow+r (scatter); the cells at the evidence floor lie
// in rows up to lastRow and eligible columns [f0, f1) (floorBounds).
//
// A cell passes the filter only at the evidence floor, MinEvidence >= 1.
// So smoothed values are needed at those cells alone, and every step
// below produces them with the float operations, in the order, of the
// seed kernel's full sweep; what it leaves out are operations on exact
// +0 (bitwise no-ops) and cells the filter can never read. A floor cell
// (i, c) reads colAcc[c], whose history is rows up to i of column c, and
// the horizontal sums at c of rows up to i+r, whose history is columns
// colLo..c+r of each row: so rows past lastRow+r and columns past the
// last floor column are never smoothed, mass past lastRow+r or past the
// last floor column + r is never read (and scatter never adds it), and
// the slide ends at lastRow.
func (s *Scorer) topSpecificity(q, b *Query, n, m, colLo, read, lastRow, f0, f1 int) float64 {
	e := s.e
	r := e.radius()
	// The eligible columns from the first to the last floor column, and
	// their share of b's compact normalization vector.
	nc := f1 - f0
	cols, sumB := b.eligCols[f0:f1], b.eligBoxOcc[f0:f1]
	touched, rowSlot := s.touched, s.rowSlot
	// Horizontal box sums, chainWidth of those rows per pass, each stored
	// at the eligible columns only, in the row's slot in filt. The last
	// group is padded with the all-zero row, whose sums land in slots no
	// row owns.
	groups := (read + chainWidth - 1) / chainWidth
	s.filt = sized(s.filt, groups*chainWidth*nc)
	filt := s.filt
	var rows, outs [chainWidth][]float32
	for g := 0; g < read; g += chainWidth {
		for k := range rows {
			rows[k] = s.zeroRow[:m]
			if g+k < read {
				rows[k] = s.mat[int(touched[g+k])*m:][:m]
			}
			outs[k] = filt[(g+k)*nc:][:nc]
		}
		boxChains(&rows, &outs, cols, colLo, r)
	}

	k := int(e.cfg.TopFrac * float64(n*m))
	if k < 1 {
		k = 1
	}
	if cap(s.top) < k {
		s.top = make([]float64, 0, k)
	}
	top := s.top[:0]
	s.colAcc = sized(s.colAcc, nc)
	colAcc := s.colAcc
	clear(colAcc)

	// Vertical slide: the seed kernel moves colAcc down all n rows,
	// adding row i+r+1 and then subtracting row i-r at each step (the
	// steps before row 0 load rows 0..r). Only touched rows are applied
	// (an untouched row is all +0), the add and the subtract of one step
	// share a pass as (acc + in) - out, a row is scanned only if it is
	// touched and query-eligible (elsewhere no cell has evidence), and the
	// slide ends once lastRow is scanned.
	//
	// The scan visits the row's columns at the evidence floor, lowest
	// first: the heap's array order is the order of the final float sum,
	// so cells must reach it in the seed sweep's column order. Every floor
	// column lies in [f0, f1), so every set bit of atFloor on the words
	// covering it is one of colAcc's columns.
	minEvid := uint(e.cfg.MinEvidence)
	planes := bits.Len(minEvid)
	ew := len(s.colMask) * planes
	support, alpha := float32(e.cfg.CellSupport), e.cfg.Pseudocount
	slot := func(i int) []float32 {
		if i < 0 || i >= n || rowSlot[i] == 0 {
			return nil
		}
		return filt[int(rowSlot[i]-1)*nc:][:nc]
	}
	for i := -r - 1; ; i++ {
		if i >= 0 && rowSlot[i] != 0 && q.eligIdx[i] >= 0 {
			sa := q.boxOcc[i]
			erow := s.evid[i*ew:][:ew]
			for mw := f0 >> 6; mw <= (f1-1)>>6; mw++ {
				for full := atFloor(erow[mw*planes:][:planes], minEvid); full != 0; full &= full - 1 {
					c := mw<<6 + bits.TrailingZeros64(full) - f0
					if cnt := colAcc[c]; cnt >= support {
						v := float64(cnt) / (sa*sumB[c] + alpha)
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
		if i == lastRow {
			break
		}
		in, out := slot(i+r+1), slot(i-r)
		switch {
		case in != nil && out != nil:
			for c := range colAcc {
				colAcc[c] = (colAcc[c] + in[c]) - out[c]
			}
		case in != nil:
			for c, h := range in {
				colAcc[c] += h
			}
		case out != nil:
			for c, h := range out {
				colAcc[c] -= h
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

// boxChains stores the radius-r box sums of each row at the columns cols
// (ascending, none left of lo) in outs, outs[k][c] for column cols[c],
// advancing the chainWidth rows together from lo to the last of cols.
// Every entry left of lo must be zero: the accumulator entering lo is
// then the ascending sum the seed kernel's left-to-right pass holds
// there (its earlier terms are all +0), and from lo on each row sees the
// seed pass's adds and subtracts in the seed pass's order, whether or
// not a column is stored.
func boxChains(rows, outs *[chainWidth][]float32, cols []int32, lo, r int) {
	r0, r1, r2, r3 := rows[0], rows[1], rows[2], rows[3]
	o0, o1, o2, o3 := outs[0], outs[1], outs[2], outs[3]
	m := len(r0)
	var a0, a1, a2, a3 float32
	for u := max(lo-r, 0); u <= lo+r && u < m; u++ {
		a0 += r0[u]
		a1 += r1[u]
		a2 += r2[u]
		a3 += r3[u]
	}
	// Columns split at the filter-window boundaries so the interior runs
	// branch-free but for the store: left of r nothing leaves the window,
	// from m-r-1 on nothing enters it. c < len(cols) while j < hi.
	j, c, hi := lo, 0, int(cols[len(cols)-1])+1
	for ; j < r && j < hi; j++ {
		if int(cols[c]) == j {
			o0[c], o1[c], o2[c], o3[c] = a0, a1, a2, a3
			c++
		}
		if j+r+1 < m {
			a0 += r0[j+r+1]
			a1 += r1[j+r+1]
			a2 += r2[j+r+1]
			a3 += r3[j+r+1]
		}
	}
	for ; j+r+1 < m && j < hi; j++ {
		if int(cols[c]) == j {
			o0[c], o1[c], o2[c], o3[c] = a0, a1, a2, a3
			c++
		}
		a0 = (a0 + r0[j+r+1]) - r0[j-r]
		a1 = (a1 + r1[j+r+1]) - r1[j-r]
		a2 = (a2 + r2[j+r+1]) - r2[j-r]
		a3 = (a3 + r3[j+r+1]) - r3[j-r]
	}
	for ; j < hi; j++ {
		if int(cols[c]) == j {
			o0[c], o1[c], o2[c], o3[c] = a0, a1, a2, a3
			c++
		}
		a0 -= r0[j-r]
		a1 -= r1[j-r]
		a2 -= r2[j-r]
		a3 -= r3[j-r]
	}
}

// boxSum1D returns box sums of radius r over occ (zero-padded), as floats.
func boxSum1D(occ []float32, n, r int) []float64 {
	dst := make([]float64, n)
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

// heapPush maintains h as a min-heap of at most k largest values. Both
// sifts move a hole instead of swapping and leave the array the textbook
// swapping sift leaves, which fixes the order its values are summed in.
// Cell values are never NaN (Config.validate).
func heapPush(h []float64, v float64, k int) []float64 {
	if len(h) < k {
		h = append(h, v)
		i := len(h) - 1
		for ; i > 0 && h[(i-1)/2] > v; i = (i - 1) / 2 {
			h[i] = h[(i-1)/2]
		}
		h[i] = v
		return h
	}
	if v <= h[0] {
		return h
	}
	// The smaller child (the left one on a tie) moves up while it is
	// below v: the choice the swapping sift makes by comparing v, left
	// and right in turn. Which child is an unpredictable question, so it
	// is put as an integer select the compiler lowers without a branch.
	i, n := 0, len(h)
	for 2*i+2 < n {
		c := 2*i + 1
		right := 0
		if h[c+1] < h[c] {
			right = 1
		}
		c += right
		if !(h[c] < v) {
			h[i] = v
			return h
		}
		h[i] = h[c]
		i = c
	}
	if c := 2*i + 1; c < n && h[c] < v {
		h[i] = h[c]
		i = c
	}
	h[i] = v
	return h
}

// Score computes PIPE(query, protein bID), building the query context
// with nThreads workers. Convenience wrapper; batch callers should reuse
// a Query and Scorer.
func (e *Engine) Score(q seq.Sequence, bID, nThreads int) float64 {
	scorer := e.AcquireScorer()
	defer e.ReleaseScorer(scorer)
	return scorer.Score(e.NewQuery(q, nThreads), bID)
}

// ScorePair computes PIPE between two natural proteins using their
// database entries.
func (e *Engine) ScorePair(aID, bID int) float64 {
	scorer := e.AcquireScorer()
	defer e.ReleaseScorer(scorer)
	return scorer.Score(e.DBQuery(aID), bID)
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
