package simindex

import (
	"fmt"
	"sort"
)

// FlatProfile is the cache-resident CSR (compressed sparse row) form of a
// similarity profile. Where Profile is a map from protein ID to a
// position list — two pointer chases and a hash per lookup — FlatProfile
// packs the same data into four parallel slices:
//
//	IDs:     [ 3        7    9       ]   sorted proteome protein IDs
//	Offsets: [ 0        3    5     8 ]   row r spans Offsets[r]:Offsets[r+1]
//	Pos:     [ 0  4  9 | 2 6 | 1 5 7 ]   query window positions, ascending per row
//	Score:   [41 37 52 |39 44 |36 40 38] best window score, parallel to Pos
//
// The scoring kernel walks rows as contiguous subslices of Pos/Score with
// no hashing, and the sorted IDs make float accumulation order — and
// therefore scores — deterministic across processes by construction.
// A FlatProfile is immutable after construction and safe for concurrent
// readers.
type FlatProfile struct {
	IDs     []int32 // sorted distinct protein IDs with >= 1 similar window
	Offsets []int32 // len(IDs)+1 row boundaries into Pos/Score
	Pos     []int32 // query window positions, strictly ascending within a row
	Score   []int32 // best similarity score, parallel to Pos
}

// Check reports whether p is well-formed as the profile of a sequence
// with numWindows windows against an index of numProteins proteins:
// Offsets runs from 0 to len(Pos) without decreasing and has one entry
// more than IDs, Score is parallel to Pos, IDs ascend within [0,
// numProteins) and positions ascend within [0, numWindows) in every
// row. Everything that reads a profile — the scoring kernel, the window
// table, SequenceSimilarityDelta — indexes by these without checking,
// so a profile that comes from outside the process (a database file, a
// Setup broadcast, a wire profile) is checked here first.
func (p FlatProfile) Check(numProteins, numWindows int) error {
	if len(p.Offsets) != len(p.IDs)+1 || len(p.Score) != len(p.Pos) {
		return fmt.Errorf("simindex: profile of %d rows has %d offsets, %d positions and %d scores", len(p.IDs), len(p.Offsets), len(p.Pos), len(p.Score))
	}
	if p.Offsets[0] != 0 || int(p.Offsets[len(p.IDs)]) != len(p.Pos) {
		return fmt.Errorf("simindex: profile offsets run %d..%d over %d positions", p.Offsets[0], p.Offsets[len(p.IDs)], len(p.Pos))
	}
	for r := range p.IDs {
		if p.Offsets[r+1] < p.Offsets[r] {
			return fmt.Errorf("simindex: profile offsets decrease at row %d", r)
		}
	}
	for r, id := range p.IDs {
		if id < 0 || int(id) >= numProteins || (r > 0 && id <= p.IDs[r-1]) {
			return fmt.Errorf("simindex: profile row %d names protein %d, want ascending IDs in [0, %d)", r, id, numProteins)
		}
		pos, _ := p.Row(r)
		for j, at := range pos {
			if at < 0 || int(at) >= numWindows || (j > 0 && at <= pos[j-1]) {
				return fmt.Errorf("simindex: profile row %d has position %d, want ascending positions in [0, %d)", r, at, numWindows)
			}
		}
	}
	return nil
}

// NumProteins returns the number of distinct similar proteins (rows).
func (p FlatProfile) NumProteins() int { return len(p.IDs) }

// NumEntries returns the total number of (protein, window) entries.
func (p FlatProfile) NumEntries() int { return len(p.Pos) }

// Row returns the position and score slices of row r (shared; read-only).
func (p FlatProfile) Row(r int) (pos, score []int32) {
	lo, hi := p.Offsets[r], p.Offsets[r+1]
	return p.Pos[lo:hi], p.Score[lo:hi]
}

// RowOf returns the row index of protein id, or -1 if the profile has no
// similar window to it. O(log rows); the scoring kernel uses a dense
// per-proteome lookup table instead (see pipe.Query).
func (p FlatProfile) RowOf(id int32) int {
	r := sort.Search(len(p.IDs), func(i int) bool { return p.IDs[i] >= id })
	if r < len(p.IDs) && p.IDs[r] == id {
		return r
	}
	return -1
}

// SimilarProteins returns the sorted similar-protein IDs (shared;
// read-only).
func (p FlatProfile) SimilarProteins() []int32 { return p.IDs }

// Entries returns row r's entries as a PosScore slice (allocates; for
// tests and diagnostics — hot paths use Row).
func (p FlatProfile) Entries(r int) []PosScore {
	pos, score := p.Row(r)
	out := make([]PosScore, len(pos))
	for i := range pos {
		out[i] = PosScore{Pos: pos[i], Score: score[i]}
	}
	return out
}

// ToProfile expands the CSR form back into the map form.
func (p FlatProfile) ToProfile() Profile {
	out := make(Profile, len(p.IDs))
	for r, id := range p.IDs {
		out[id] = p.Entries(r)
	}
	return out
}

// FlatFromProfile converts a map-form Profile to CSR form. Rows are
// sorted by protein ID; entries keep their in-row order (a valid Profile
// is already position-sorted).
func FlatFromProfile(prof Profile) FlatProfile {
	ids := prof.SimilarProteins()
	total := 0
	for _, entries := range prof {
		total += len(entries)
	}
	fp := FlatProfile{
		IDs:     ids,
		Offsets: make([]int32, len(ids)+1),
		Pos:     make([]int32, 0, total),
		Score:   make([]int32, 0, total),
	}
	for r, id := range ids {
		for _, e := range prof[id] {
			fp.Pos = append(fp.Pos, e.Pos)
			fp.Score = append(fp.Score, e.Score)
		}
		fp.Offsets[r+1] = int32(len(fp.Pos))
	}
	return fp
}

// mergeFlat merges per-thread partial map profiles into one CSR profile:
// the union of IDs is sorted, each row's entries are concatenated,
// position-sorted and deduplicated keeping the best score. This replaces
// the map-merge + per-ID sort of the previous implementation and is the
// only place a profile map survives — worker-local, never on the scoring
// path.
func mergeFlat(partial []Profile) FlatProfile {
	idSet := make(map[int32]struct{})
	total := 0
	for _, prof := range partial {
		for id, entries := range prof {
			idSet[id] = struct{}{}
			total += len(entries)
		}
	}
	ids := make([]int32, 0, len(idSet))
	for id := range idSet {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	fp := FlatProfile{
		IDs:     ids,
		Offsets: make([]int32, len(ids)+1),
		Pos:     make([]int32, 0, total),
		Score:   make([]int32, 0, total),
	}
	var row []PosScore
	for r, id := range ids {
		row = row[:0]
		for _, prof := range partial {
			row = append(row, prof[id]...)
		}
		sort.Slice(row, func(i, j int) bool { return row[i].Pos < row[j].Pos })
		// Deduplicate by position, keeping the best score (strided workers
		// cannot duplicate, but keep the invariant explicit).
		for i, v := range row {
			if n := len(fp.Pos); i > 0 && n > int(fp.Offsets[r]) && fp.Pos[n-1] == v.Pos {
				if v.Score > fp.Score[n-1] {
					fp.Score[n-1] = v.Score
				}
				continue
			}
			fp.Pos = append(fp.Pos, v.Pos)
			fp.Score = append(fp.Score, v.Score)
		}
		fp.Offsets[r+1] = int32(len(fp.Pos))
	}
	return fp
}
