package simindex

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The wire form of a FlatProfile is what a netcluster worker returns
// with a candidate's scores and what the master ships, unopened, to the
// worker that evaluates the candidate's children. It is a run of
// varints:
//
//	rows
//	per row:   id - previous id - 1      (previous id starts at -1)
//	           entries - 1
//	per entry: pos - previous pos - 1    (previous pos starts at -1 in every row)
//	           score                     (zig-zag)
//
// Gaps and counts are stored less one, so ascending IDs, ascending
// positions and non-empty rows are the only thing the form can say; a
// parser has ranges left to check. Every varint is in its shortest
// encoding, so a profile has exactly one wire form and an accepted
// input re-encodes to itself.

// AppendWire appends p's wire form to dst.
func (p FlatProfile) AppendWire(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(p.IDs)))
	prevID := int32(-1)
	for r, id := range p.IDs {
		pos, score := p.Row(r)
		dst = binary.AppendUvarint(dst, uint64(id-prevID-1))
		dst = binary.AppendUvarint(dst, uint64(len(pos)-1))
		prevID = id
		prevPos := int32(-1)
		for j := range pos {
			dst = binary.AppendUvarint(dst, uint64(pos[j]-prevPos-1))
			dst = binary.AppendVarint(dst, int64(score[j]))
			prevPos = pos[j]
		}
	}
	return dst
}

var errWireProfile = errors.New("simindex: malformed wire profile")

// wireVarints reads shortest-form varints off the front of a buffer.
type wireVarints struct{ b []byte }

// uvarint returns the next value, which must not exceed limit.
func (r *wireVarints) uvarint(limit uint64) (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) || v > limit {
		return 0, errWireProfile
	}
	r.b = r.b[n:]
	return v, nil
}

// skip returns the value a gap skips to from next, which must fit an
// int32; whether it is in range is FlatProfile.Check's to say.
func (r *wireVarints) skip(next int64) (int32, error) {
	gap, err := r.uvarint(math.MaxInt32)
	if err != nil || next+int64(gap) > math.MaxInt32 {
		return 0, errWireProfile
	}
	return int32(next + int64(gap)), nil
}

// ParseWire decodes a wire profile of a sequence with numWindows windows
// against an index of numProteins proteins. What it returns passes
// FlatProfile.Check and has an entry in every row, so it is safe to hand
// to SequenceSimilarityDelta as that sequence's profile. Memory is
// allocated in proportion to len(data), whatever counts data claims.
func ParseWire(data []byte, numProteins, numWindows int) (FlatProfile, error) {
	r := wireVarints{data}
	// A row is at least four bytes and an entry at least two, which is
	// what bounds the slices below and the loops that fill them.
	rows, err := r.uvarint(uint64(len(data) / 4))
	if err != nil {
		return FlatProfile{}, fmt.Errorf("%w: row count", errWireProfile)
	}
	p := FlatProfile{
		IDs:     make([]int32, 0, rows),
		Offsets: make([]int32, 1, rows+1),
		Pos:     make([]int32, 0, len(data)/2),
		Score:   make([]int32, 0, len(data)/2),
	}
	nextID := int64(0)
	for row := uint64(0); row < rows; row++ {
		id, err := r.skip(nextID)
		if err != nil {
			return FlatProfile{}, fmt.Errorf("%w: row %d protein", errWireProfile, row)
		}
		nextID = int64(id) + 1
		more, err := r.uvarint(math.MaxInt32)
		if err != nil {
			return FlatProfile{}, fmt.Errorf("%w: row %d entry count", errWireProfile, row)
		}
		nextPos := int64(0)
		for e := uint64(0); e <= more; e++ {
			pos, err := r.skip(nextPos)
			if err != nil {
				return FlatProfile{}, fmt.Errorf("%w: row %d position", errWireProfile, row)
			}
			nextPos = int64(pos) + 1
			zz, err := r.uvarint(math.MaxUint32)
			if err != nil {
				return FlatProfile{}, fmt.Errorf("%w: row %d score", errWireProfile, row)
			}
			p.Pos = append(p.Pos, pos)
			p.Score = append(p.Score, int32(zz>>1)^-int32(zz&1))
		}
		p.IDs = append(p.IDs, id)
		p.Offsets = append(p.Offsets, int32(len(p.Pos)))
	}
	if len(r.b) != 0 {
		return FlatProfile{}, fmt.Errorf("%w: %d trailing bytes", errWireProfile, len(r.b))
	}
	if err := p.Check(numProteins, numWindows); err != nil {
		return FlatProfile{}, fmt.Errorf("%w: %w", errWireProfile, err)
	}
	return p, nil
}
