package pipe

import (
	"math/bits"
	"slices"
	"testing"

	"repro/internal/simindex"
	"repro/internal/yeastgen"
)

// benchProteome generates the committed benchmark's proteome shape
// (yeastgen.DefaultParams, seed 1) at numProteins proteins before the
// wet-lab targets are added.
func benchProteome(t testing.TB, numProteins int) *yeastgen.Proteome {
	t.Helper()
	params := yeastgen.DefaultParams()
	params.NumProteins = numProteins
	pr, err := yeastgen.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// walkXIndex builds database entry b's X index the way accumulate,
// scatter and the reach gate walked it on every call before the index:
// for every protein X, its graph neighbours Y looked up in b's profile.
func walkXIndex(e *Engine, b *Query) xIndex {
	nw := (len(b.eligCols) + 63) / 64
	xs := xIndex{nw: nw}
	for x := 0; x < e.index.NumProteins(); x++ {
		var rows []int32
		lo, hi := int32(1<<31-1), int32(-1)
		mask := make([]uint64, nw)
		for _, y := range e.graph.Neighbors(x) {
			br := b.prof.RowOf(int32(y))
			if br < 0 {
				continue
			}
			pos, _ := b.prof.Row(br)
			if len(pos) == 0 {
				continue
			}
			rows = append(rows, int32(br))
			lo, hi = min(lo, pos[0]), max(hi, pos[len(pos)-1])
			for _, p := range pos {
				if c := b.eligIdx[p]; c >= 0 {
					mask[c>>6] |= 1 << (c & 63)
				}
			}
		}
		if len(rows) == 0 {
			continue
		}
		xs.ids = append(xs.ids, int32(x))
		xs.span = append(xs.span, lo, hi)
		xs.masks = append(xs.masks, mask...)
		xs.rowOff = append(xs.rowOff, int32(len(xs.rows)))
		xs.rows = append(xs.rows, rows...)
	}
	xs.rowOff = append(xs.rowOff, int32(len(xs.rows)))
	return xs
}

// walkReach is the reach set as the engine walked it before the X
// index: every graph neighbour of a protein Y whose row in b's profile
// holds an eligible column.
func walkReach(e *Engine, b *Query) []uint64 {
	reach := make([]uint64, (e.index.NumProteins()+63)/64)
	for r, y := range b.prof.IDs {
		pos, _ := b.prof.Row(r)
		if !slices.ContainsFunc(pos, func(p int32) bool { return b.eligIdx[p] >= 0 }) {
			continue
		}
		for _, x := range e.graph.Neighbors(int(y)) {
			reach[x>>6] |= 1 << (x & 63)
		}
	}
	return reach
}

// For every database entry of the benchmark's proteome (224 proteins)
// at MinEvidence 1-3, and at MinOcc 1 and 4 where masks take more words
// or rows hold no eligible column, the reach gate read off the X index
// is bit-equal to the neighbour walk it replaced, and the X index itself
// is the one the per-call walk assembled.
func TestXIndexReachMatchesWalk(t *testing.T) {
	pr := benchProteome(t, 200)
	for _, cfg := range []Config{{MinEvidence: 1}, {MinEvidence: 2}, {MinEvidence: 3}, {MinEvidence: 2, MinOcc: 1}, {MinEvidence: 2, MinOcc: 4}} {
		e, err := New(pr.Proteins, pr.Graph, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		reached := 0
		for id := range pr.Proteins {
			b, gate := e.DBQuery(id), e.ReachGate(id)
			if gate.Floor != cfg.MinEvidence {
				t.Fatalf("entry %d: gate floor %d, MinEvidence %d", id, gate.Floor, cfg.MinEvidence)
			}
			if want := walkReach(e, b); !slices.Equal(gate.Reach, want) {
				t.Fatalf("MinEvidence %d, MinOcc %d, entry %d: reach set differs from the neighbour walk's", cfg.MinEvidence, e.cfg.MinOcc, id)
			}
			want := walkXIndex(e, b)
			if got := b.xs; got.nw != want.nw || !slices.Equal(got.ids, want.ids) || !slices.Equal(got.span, want.span) ||
				!slices.Equal(got.masks, want.masks) || !slices.Equal(got.rowOff, want.rowOff) || !slices.Equal(got.rows, want.rows) {
				t.Fatalf("MinEvidence %d, MinOcc %d, entry %d: X index differs from the neighbour walk's", cfg.MinEvidence, e.cfg.MinOcc, id)
			}
			for _, w := range gate.Reach {
				reached += bits.OnesCount64(w)
			}
		}
		if reached == 0 {
			t.Fatalf("MinEvidence %d, MinOcc %d: every reach set is empty", cfg.MinEvidence, e.cfg.MinOcc)
		}
	}
}

// indexBytes is the size of X index xs in bytes.
func indexBytes(xs xIndex) int {
	return 4*(len(xs.ids)+len(xs.span)+len(xs.rowOff)+len(xs.rows)) + 8*len(xs.masks)
}

// profileBytes is what database entry b holds of its profile: the CSR
// slices and the graded weights.
func profileBytes(b *Query) int {
	p := b.prof
	return 4 * (len(p.IDs) + len(p.Offsets) + len(p.Pos) + len(p.Score) + len(b.weight))
}

// On the benchmark's proteome (224 proteins) and at about 1 500 (skipped
// with -short), the X index costs no more than the profile and weights
// its entries already hold, summed over every entry: 1.3 KB against
// 8.1 KB an entry at 224 proteins, 30.5 KB against 38.6 KB at 1 524.
// Many entries' own index can be larger than their profile (229 of the
// 1 524 entries, by up to 65 %), so the test logs the largest ratio.
// Storing only the non-zero mask words, with a word index each, costs
// more than dense masks at both sizes (EXPERIMENTS.md "One X index per
// entry").
func TestXIndexMemoryBound(t *testing.T) {
	sizes := []int{200, 1500}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, size := range sizes {
		pr := benchProteome(t, size)
		e, err := New(pr.Proteins, pr.Graph, Config{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		index, prof, words, xs, over, worst := 0, 0, 0, 0, 0, 0.0
		for id := range pr.Proteins {
			b := e.DBQuery(id)
			got, bound := indexBytes(b.xs), profileBytes(b)
			if got > bound {
				over++
			}
			worst = max(worst, float64(got)/float64(bound))
			index += got
			prof += bound
			xs += len(b.xs.ids)
			for k := range b.xs.ids {
				words += len(slices.DeleteFunc(slices.Clone(b.xs.mask(k)), func(w uint64) bool { return w == 0 }))
			}
		}
		n := len(pr.Proteins)
		t.Logf("%d proteins: X index %.1f KB an entry, profile and weights %.1f KB; %d entries' index larger than their profile (largest ratio %.2f); %.1f X an entry, %.2f non-zero mask words an X",
			n, float64(index)/float64(n)/1024, float64(prof)/float64(n)/1024, over, worst, float64(xs)/float64(n), float64(words)/float64(max(xs, 1)))
		if index > prof {
			t.Errorf("%d proteins: X index %d bytes over every entry, profile and weights %d", n, index, prof)
		}
	}
}

// reachableShape builds a target and a query with the given number of
// reachable evidence proteins: X that hold a query-eligible row and
// reach an eligible column of the target. X1, X2 and Z6 are wired to Y3
// and Y4, which cover the eligible columns 4-10; those of them past the
// reachable count have their query row at a window only they cover
// (query-ineligible at MinOcc 2). Z7 is wired to Y5 alone, which covers
// columns 12-13 (target-ineligible), and Y5's own query row makes the
// windows 2-4 eligible: Z7 lands mass and reaches no eligible column.
func reachableShape(t *testing.T, cfg Config, reachable int) (*Engine, *Query) {
	t.Helper()
	var edges [][2]int
	for _, x := range []int{1, 2, 6} {
		edges = append(edges, [2]int{x, 3}, [2]int{x, 4})
	}
	edges = append(edges, [2]int{7, 5})
	target := simindex.Profile{3: shapeRow(3, seqRange(4, 11)...), 4: shapeRow(4, seqRange(4, 11)...), 5: shapeRow(5, 12, 13)}
	e := shapeEngine(t, cfg, 15, edges, target)
	prof := simindex.Profile{5: shapeRow(5, 2, 3, 4), 7: shapeRow(7, 2, 3, 4)}
	for i, x := range []int32{1, 2, 6} {
		if i < reachable {
			prof[x] = shapeRow(x, 2, 3, 4)
		} else {
			prof[x] = shapeRow(x, int32(7+i))
		}
	}
	return e, shapeQuery(e, 12, prof)
}

// TestShapeReachableBelowFloor is the call-level rejection: with
// MinEvidence - 1 reachable evidence proteins, and the others landing
// mass, the call scores 0 (the seed kernel's score) without writing
// evidence or mass.
func TestShapeReachableBelowFloor(t *testing.T) {
	for name, cfg := range shapeRadii() {
		for _, floor := range []int{1, 2, 3} {
			cfg.MinEvidence = floor
			e, q := reachableShape(t, cfg, floor-1)
			if mass, _, _, _ := floorCensus(e.NewScorer(), q, 0); !mass {
				t.Fatalf("%s floor %d: no mass lands", name, floor)
			}
			if got := shapeCheck(t, e, q); got != 0 {
				t.Fatalf("%s floor %d: %d reachable evidence proteins scored %v", name, floor, floor-1, got)
			}
			fresh := e.NewScorer()
			fresh.Score(q, 0)
			if fresh.evid != nil || fresh.mat != nil {
				t.Errorf("%s floor %d: a rejected call wrote evidence or mass", name, floor)
			}
		}
	}
}

// TestShapeReachableAtFloor: with exactly MinEvidence reachable evidence
// proteins the call is scored in full, to the seed kernel's bits.
func TestShapeReachableAtFloor(t *testing.T) {
	for name, cfg := range shapeRadii() {
		for _, floor := range []int{1, 2, 3} {
			cfg.MinEvidence = floor
			e, q := reachableShape(t, cfg, floor)
			if got := shapeCheck(t, e, q); got <= 0 {
				t.Errorf("%s floor %d: %d reachable evidence proteins scored %v", name, floor, floor, got)
			}
		}
	}
}
