package pipe

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/seq"
)

// The reach gate of a database entry is the set of proteins X that
// accumulate can count as evidence against it — X has a graph neighbour
// whose row in the entry's profile holds an eligible column — and a
// candidate whose profile holds fewer than MinEvidence of them scores
// exactly 0 against it. A gated delta build of such a candidate is
// partial; any other is the candidate's NewQuery.
func TestReachGateBoundsEvidence(t *testing.T) {
	pr, _ := testSetup(t)
	rng := rand.New(rand.NewSource(8))
	sampler := seq.NewSampler(seq.YeastComposition())
	var cands []seq.Sequence
	for i := 0; i < 12; i++ {
		cands = append(cands, seq.Random(rng, "cand", 60+rng.Intn(80), seq.YeastComposition()), naturalChimera(rng, pr.Proteins))
	}
	// At the default MinOcc every row of an entry holds an eligible
	// column; at MinOcc 4, 18 rows of the first 40 entries hold none.
	for _, cfg := range []Config{{MinEvidence: 1}, {MinEvidence: 2}, {MinEvidence: 3}, {MinEvidence: 2, MinOcc: 4}} {
		minEvid := cfg.MinEvidence
		eng, err := New(pr.Proteins, pr.Graph, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		dead, live := 0, 0
		for target := 0; target < 40; target++ {
			b, gate := eng.DBQuery(target), eng.ReachGate(target)
			if gate.Floor != minEvid {
				t.Fatalf("gate floor %d, MinEvidence %d", gate.Floor, minEvid)
			}
			for x := 0; x < eng.index.NumProteins(); x++ {
				want := false
				for _, y := range eng.graph.Neighbors(x) {
					if r := b.prof.RowOf(int32(y)); r >= 0 {
						pos, _ := b.prof.Row(r)
						for _, p := range pos {
							want = want || b.eligIdx[p] >= 0
						}
					}
				}
				if got := gate.Reach[x/64]>>(x%64)&1 == 1; got != want {
					t.Fatalf("target %d: protein %d in reach %v, want %v", target, x, got, want)
				}
			}
			if target%10 != 0 {
				continue
			}
			scorer := eng.NewScorer()
			for _, c := range cands {
				q := eng.NewQuery(c, 1)
				inReach := 0
				for _, id := range q.prof.IDs {
					if gate.Reach[id/64]>>(id%64)&1 == 1 {
						inReach++
					}
				}
				if inReach >= minEvid {
					live++
				} else if dead++; scorer.Score(q, target) != 0 {
					t.Fatalf("target %d: a candidate with %d reach proteins scores %v at MinEvidence %d", target, inReach, scorer.Score(q, target), minEvid)
				}
				child := seq.Mutate(rng, c, 0.03, sampler)
				fresh := eng.NewQuery(child, 1)
				got := eng.NewQueryDeltaCross(q, nil, child, 2, gate)
				if got.Partial() {
					if scorer.Score(fresh, target) != 0 {
						t.Fatalf("target %d: a partial child scores %v", target, scorer.Score(fresh, target))
					}
				} else if !reflect.DeepEqual(got.prof, fresh.prof) {
					t.Fatalf("target %d: a live gated child's profile differs from its NewQuery's", target)
				}
			}
		}
		t.Logf("MinEvidence %d, MinOcc %d: %d candidate-target pairs below the floor, %d at or above it", minEvid, eng.cfg.MinOcc, dead, live)
		if dead == 0 || live == 0 {
			t.Fatalf("MinEvidence %d, MinOcc %d: %d pairs below the floor and %d at or above it, want some of both", minEvid, eng.cfg.MinOcc, dead, live)
		}
	}
}
