package search

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repro/internal/ga"
	"repro/internal/seq"
)

// restoreConfigs are the three strategies FuzzRestoreSearchState
// restores into.
var restoreConfigs = []Config{
	{Strategy: StrategyGA},
	{Strategy: StrategyBeam},
	{Strategy: StrategyAnneal},
}

// constantEvaluator scores every candidate 0.5.
func constantEvaluator() ga.Evaluator {
	return ga.EvaluatorFunc(func(seqs []seq.Sequence) []float64 {
		out := make([]float64, len(seqs))
		for i := range out {
			out[i] = 0.5
		}
		return out
	})
}

// restorePopulation is a valid pending batch of smallParams' shape.
func restorePopulation() []seq.Sequence {
	p := smallParams()
	pop := make([]seq.Sequence, p.PopulationSize)
	for i := range pop {
		pop[i] = seq.MustNew("x", "ACDEFGHIKLMNPQRSTVWYACDEFGHIKLMNPQRSTVWY"[:p.SeqLen])
	}
	return pop
}

// damagedChains is a checkpoint blob whose first chain holds residues
// that are not amino acids: the resume that panicked an insipsd replica.
func damagedChains(t testing.TB) []byte {
	t.Helper()
	chains := make([]annealChain, smallParams().PopulationSize)
	for i := range chains {
		chains[i] = annealChain{Name: "x", Residues: "ACDE", Fitness: 0.1}
	}
	chains[0] = annealChain{Residues: "AC1!", Fitness: 1e9}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(chains); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestoreRejectsDamagedPositions: a checkpoint whose chain is not a
// protein sequence is an error from Restore, not a panic in the next
// Step.
func TestRestoreRejectsDamagedPositions(t *testing.T) {
	for _, c := range []struct {
		name  string
		cfg   Config
		state []byte
	}{
		{"anneal invalid residue", Config{Strategy: StrategyAnneal}, damagedChains(t)},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := New(c.cfg, smallParams(), constantEvaluator())
			if err != nil {
				t.Fatal(err)
			}
			pop := restorePopulation()
			if err := s.Restore(3, pop, ga.Individual{Seq: pop[0], Fitness: 0.5}, 1, c.state); err == nil {
				t.Fatal("Restore accepted a damaged position")
			}
		})
	}
}

// FuzzRestoreSearchState restores arbitrary bytes as a checkpoint's
// strategy state into each of the three strategies. Whatever Restore
// accepts must be a state the searcher can go on from: three Steps with
// a constant evaluator may not panic. The seeds are each strategy's own
// state after two generations and the damaged chain above; the
// committed corpus under testdata/fuzz holds the anneal reproducer and
// two walker blobs of the since-deleted landscape mode, kept as hostile
// inputs for the remaining restorers.
func FuzzRestoreSearchState(f *testing.F) {
	params := smallParams()
	for _, cfg := range restoreConfigs {
		s, err := New(cfg, params, countingEvaluator())
		if err != nil {
			f.Fatal(err)
		}
		s.Step()
		s.Step()
		state, err := s.State()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(state)
	}
	f.Add(damagedChains(f))

	f.Fuzz(func(t *testing.T, state []byte) {
		pop := restorePopulation()
		for _, cfg := range restoreConfigs {
			s, err := New(cfg, params, constantEvaluator())
			if err != nil {
				t.Fatal(err)
			}
			if s.Restore(3, pop, ga.Individual{Seq: pop[0], Fitness: 0.5}, 1, state) != nil {
				continue
			}
			for i := 0; i < 3; i++ {
				s.Step()
			}
		}
	})
}
