// Package simindex implements the window-similarity search that PIPE's
// first step requires (paper Section 2.2): given a length-w protein
// fragment, find every protein in the proteome containing a fragment whose
// PAM120 score against it is above a tunable threshold.
//
// Brute force compares the query window against every window of every
// protein; the index instead seeds candidates BLAST-style with
// reduced-alphabet k-mers (conservative substitutions share seeds) and
// verifies candidates with the exact PAM120 window score, returning the
// same hits at a fraction of the cost. Profile builds never search one
// window at a time: unresolved windows come in runs of adjacent
// positions, which share all but one seed k-mer and differ by one
// residue pair per step along an alignment diagonal, so a run is seeded
// once and its diagonals are scored by sliding (searchRun in batch.go;
// exact, because scores are integers). SimilarWindows is the plain
// per-window search, kept as the public reference the run search is
// tested against. This structure is the "PIPE similarity database and
// index" that the master broadcasts to the workers (Section 2.3); it is
// immutable after Build and safe for concurrent readers.
package simindex

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/seq"
	"repro/internal/submat"
)

// Config controls index construction and query-time verification.
type Config struct {
	// Window is the PIPE sliding-window size w. Default 20.
	Window int
	// SeedLen is the reduced-alphabet k-mer length used for candidate
	// generation. Default 5.
	SeedLen int
	// Threshold is the minimum ungapped PAM120 (or chosen matrix) window
	// score for two fragments to count as similar. Default 35, PIPE's
	// published operating point for w=20.
	Threshold int
	// Matrix is the substitution matrix. Default PAM120.
	Matrix *submat.Matrix
	// Reduced is the seeding alphabet. Default Murphy10.
	Reduced *seq.ReducedAlphabet
}

func (c Config) withDefaults() Config {
	if c.Window == 0 {
		c.Window = 20
	}
	if c.SeedLen == 0 {
		c.SeedLen = 5
	}
	if c.Threshold == 0 {
		c.Threshold = 35
	}
	if c.Matrix == nil {
		c.Matrix = submat.PAM120()
	}
	if c.Reduced == nil {
		c.Reduced = seq.Murphy10()
	}
	return c
}

func (c Config) validate() error {
	if c.Window < 2 {
		return fmt.Errorf("simindex: window %d too small", c.Window)
	}
	if c.SeedLen < 1 || c.SeedLen > c.Window {
		return fmt.Errorf("simindex: seed length %d invalid for window %d", c.SeedLen, c.Window)
	}
	if c.SeedLen > 12 {
		return fmt.Errorf("simindex: seed length %d overflows key space", c.SeedLen)
	}
	return nil
}

// WinRef identifies one length-w window: protein ID and start position.
type WinRef struct {
	Protein int32
	Pos     int32
}

// Hit is one verified similar window: where it is and its exact
// substitution-matrix score against the query window.
type Hit struct {
	Protein int32
	Pos     int32
	Score   int32
}

// Index is the immutable seeded window index over a fixed proteome.
type Index struct {
	cfg      Config
	proteins []seq.Sequence
	indices  [][]int8 // residue alphabet indices per protein
	// flatIdx is every protein's alphabet indices in one arena
	// (protein p occupies flatIdx[protOff[p]:protOff[p+1]]): candidate
	// verification reads it with plain offset arithmetic instead of
	// chasing a per-protein slice header per candidate.
	flatIdx []int8
	protOff []int32
	buckets map[uint64][]WinRef
	// Dense CSR mirror of buckets, built when the key space classes^k is
	// small enough to index directly: denseRefs[denseOff[key]:denseOff[key+1]]
	// replaces a map lookup per seed offset on the query hot path. nil when
	// the key space is too large (falls back to the map).
	denseOff  []int32
	denseRefs []WinRef
	// winBase[p] is the global ID of protein p's first window (prefix sum
	// of per-protein window counts, with winBase[len] = totalWins as a
	// sentinel); totalWins is the proteome-wide window count. Searchers
	// number a run's diagonals from it (winBase[p] + maxRun*p + rank is
	// dense and disjoint across proteins), and winBase[p+1]-winBase[p]
	// is protein p's window count in the in-bounds tests.
	winBase   []int32
	totalWins int
	searchers sync.Pool // *winSearcher, reused across query calls
	scratch   sync.Pool // *simScratch, reused across batch/delta calls
	posCount  int       // total indexed k-mer positions
}

// maxDenseKeys bounds the dense seed table: Murphy10^5 = 1e5 and
// Dayhoff6^5 ~ 7.8e3 qualify; Identity20^5 = 3.2e6 does not.
const maxDenseKeys = 1 << 20

// refs returns the seed bucket for key via the dense table when built.
func (ix *Index) refs(key uint64) []WinRef {
	if ix.denseOff != nil {
		return ix.denseRefs[ix.denseOff[key]:ix.denseOff[key+1]]
	}
	return ix.buckets[key]
}

// Build indexes the proteome. Protein IDs are positions in the slice.
func Build(proteins []seq.Sequence, cfg Config) (*Index, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ix := &Index{
		cfg:      cfg,
		proteins: proteins,
		indices:  make([][]int8, len(proteins)),
		buckets:  make(map[uint64][]WinRef),
	}
	for p, s := range proteins {
		ix.indices[p] = s.Indices()
		res := s.Residues()
		for pos := 0; pos+cfg.SeedLen <= len(res); pos++ {
			key, ok := cfg.Reduced.ReduceKmer(res, pos, cfg.SeedLen)
			if !ok {
				continue
			}
			ix.buckets[key] = append(ix.buckets[key], WinRef{Protein: int32(p), Pos: int32(pos)})
			ix.posCount++
		}
	}
	if keys := denseKeySpace(cfg); keys > 0 {
		ix.denseOff = make([]int32, keys+1)
		ix.denseRefs = make([]WinRef, ix.posCount)
		for key, refs := range ix.buckets {
			ix.denseOff[key+1] = int32(len(refs))
		}
		for key := 1; key <= keys; key++ {
			ix.denseOff[key] += ix.denseOff[key-1]
		}
		for key, refs := range ix.buckets {
			copy(ix.denseRefs[ix.denseOff[key]:], refs)
		}
		ix.buckets = nil // dense table supersedes the map
	}
	ix.winBase = make([]int32, len(proteins)+1)
	ix.protOff = make([]int32, len(proteins)+1)
	flatLen := 0
	for p, s := range proteins {
		ix.winBase[p] = int32(ix.totalWins)
		if n := s.Len() - cfg.Window + 1; n > 0 {
			ix.totalWins += n
		}
		ix.protOff[p] = int32(flatLen)
		flatLen += len(ix.indices[p])
	}
	ix.winBase[len(proteins)] = int32(ix.totalWins)
	ix.protOff[len(proteins)] = int32(flatLen)
	ix.flatIdx = make([]int8, 0, flatLen)
	for _, idx := range ix.indices {
		ix.flatIdx = append(ix.flatIdx, idx...)
	}
	return ix, nil
}

// denseKeySpace returns classes^SeedLen when it fits under maxDenseKeys,
// else 0 (dense table disabled).
func denseKeySpace(cfg Config) int {
	keys := 1
	for i := 0; i < cfg.SeedLen; i++ {
		keys *= cfg.Reduced.Classes()
		if keys > maxDenseKeys {
			return 0
		}
	}
	return keys
}

// Config returns the configuration the index was built with.
func (ix *Index) Config() Config { return ix.cfg }

// NumProteins returns the size of the indexed proteome.
func (ix *Index) NumProteins() int { return len(ix.proteins) }

// Protein returns the indexed sequence with the given ID.
func (ix *Index) Protein(id int) seq.Sequence { return ix.proteins[id] }

// NumSeedPositions returns the total number of indexed k-mer positions
// (a size diagnostic).
func (ix *Index) NumSeedPositions() int { return ix.posCount }

// SimilarWindows returns every window in the proteome scoring >=
// Threshold against the query window (given as residue indices; use
// seq.Sequence.Indices), with its exact score. Results are sorted by
// protein then position and deduplicated.
func (ix *Index) SimilarWindows(query []int8, qpos int) []Hit {
	w, k := ix.cfg.Window, ix.cfg.SeedLen
	qres := make([]byte, w)
	for i := 0; i < w; i++ {
		qres[i] = seq.Letter(int(query[qpos+i]))
	}
	seen := make(map[WinRef]struct{})
	var hits []Hit
	for off := 0; off+k <= w; off++ {
		key, ok := ix.cfg.Reduced.ReduceKmer(string(qres), off, k)
		if !ok {
			continue
		}
		for _, ref := range ix.refs(key) {
			start := int(ref.Pos) - off
			if start < 0 {
				continue
			}
			target := ix.indices[ref.Protein]
			if start+w > len(target) {
				continue
			}
			cand := WinRef{Protein: ref.Protein, Pos: int32(start)}
			if _, dup := seen[cand]; dup {
				continue
			}
			seen[cand] = struct{}{}
			if score := ix.cfg.Matrix.WindowScoreIdx(query, qpos, target, start, w); score >= ix.cfg.Threshold {
				hits = append(hits, Hit{Protein: ref.Protein, Pos: int32(start), Score: int32(score)})
			}
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Protein != hits[j].Protein {
			return hits[i].Protein < hits[j].Protein
		}
		return hits[i].Pos < hits[j].Pos
	})
	return hits
}

// BruteSimilarWindows is the exhaustive reference implementation of
// SimilarWindows (used in tests and the seeding ablation).
func (ix *Index) BruteSimilarWindows(query []int8, qpos int) []Hit {
	w := ix.cfg.Window
	var hits []Hit
	for p, target := range ix.indices {
		for start := 0; start+w <= len(target); start++ {
			if score := ix.cfg.Matrix.WindowScoreIdx(query, qpos, target, start, w); score >= ix.cfg.Threshold {
				hits = append(hits, Hit{Protein: int32(p), Pos: int32(start), Score: int32(score)})
			}
		}
	}
	return hits
}

// PosScore is one profile entry: a query window position and the best
// similarity score between that window and any window of the profiled
// protein.
type PosScore struct {
	Pos   int32
	Score int32
}

// Profile maps a proteome protein ID to the sorted query window positions
// similar to at least one window of that protein, each carrying the best
// similarity score. It is the per-candidate "sequence_similarity" data
// structure of Algorithm 2.
type Profile map[int32][]PosScore

// SimilarProteins returns the sorted IDs of proteins with any similar
// window.
func (p Profile) SimilarProteins() []int32 {
	out := make([]int32, 0, len(p))
	for id := range p {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SequenceSimilarity computes the CSR profile of query against the
// proteome using nThreads parallel workers, each over one contiguous
// portion of the query's windows (nThreads <= 0 means GOMAXPROCS). This
// mirrors the "build specified portion of sequence_similarity ... in
// parallel" step of Algorithm 2. Workers aggregate each window's hits into reusable slice-backed
// accumulators (no per-window maps survive onto the scoring path); the
// per-window lists are then assembled into the flat CSR form through
// the same sorted emission as mergeFlat, so output is bit-identical to
// the original map-and-merge implementation.
func (ix *Index) SequenceSimilarity(query seq.Sequence, nThreads int) FlatProfile {
	return ix.sequenceSimilarityAgg(query, nThreads, false, nil)
}

// BruteSequenceSimilarity is SequenceSimilarity using the exhaustive
// search; for tests and the seeding ablation.
func (ix *Index) BruteSequenceSimilarity(query seq.Sequence, nThreads int) FlatProfile {
	return ix.sequenceSimilarityAgg(query, nThreads, true, nil)
}
