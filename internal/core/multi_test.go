package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/obs"
)

func TestMultiFitnessFormula(t *testing.T) {
	cases := []struct {
		targets []float64
		nts     []float64
		want    float64
	}{
		{nil, nil, 0},
		{[]float64{0.8}, nil, 0.8},
		{[]float64{0.8, 0.4}, nil, 0.4},                  // bottleneck target
		{[]float64{0.8, 0.4}, []float64{0.5}, 0.5 * 0.4}, // off-target penalty
		{[]float64{1, 1}, []float64{1}, 0},               // total off-target
		{[]float64{0.6}, []float64{0.1, 0.3}, 0.7 * 0.6}, // max non-target rules
	}
	for i, c := range cases {
		if got := MultiFitness(c.targets, c.nts); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("case %d: MultiFitness = %f, want %f", i, got, c.want)
		}
	}
}

func TestMultiFitnessReducesToSingle(t *testing.T) {
	// With one target, MultiFitness must equal Fitness.
	f := func(traw, nraw uint16) bool {
		target := float64(traw) / 65535
		nt := float64(nraw) / 65535
		a := MultiFitness([]float64{target}, []float64{nt})
		b := Fitness(target, []float64{nt})
		return math.Abs(a-b) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMultiFitnessMonotoneInWeakestLink(t *testing.T) {
	f := func(araw, braw uint16) bool {
		a := float64(araw) / 65535
		b := float64(braw) / 65535
		// Raising the weaker target cannot lower fitness.
		lo, hi := math.Min(a, b), math.Max(a, b)
		base := MultiFitness([]float64{lo, hi}, nil)
		raised := MultiFitness([]float64{math.Min(lo+0.1, 1), hi}, nil)
		return raised >= base-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDesignMultiValidation(t *testing.T) {
	_, eng := setup(t)
	opts := designOpts(10, 2, 1)
	if _, err := NewDesigner(Problem{TargetID: 0, CoTargetIDs: []int{1}}, opts); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := NewDesigner(Problem{Engine: eng, TargetID: 0, CoTargetIDs: []int{0}}, opts); err == nil {
		t.Error("target repeated as co-target accepted")
	}
	if _, err := NewDesigner(Problem{Engine: eng, TargetID: 0, CoTargetIDs: []int{1}, NonTargetIDs: []int{1}}, opts); err == nil {
		t.Error("overlapping target/non-target accepted")
	}
}

// designMulti runs a Designer over targets[0] with the rest as
// co-targets — what the deleted DesignMulti entry point did.
func designMulti(t *testing.T, targets, nts []int, opts Options) Result {
	t.Helper()
	_, eng := setup(t)
	d, err := NewDesigner(Problem{Engine: eng, TargetID: targets[0], CoTargetIDs: targets[1:], NonTargetIDs: nts}, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The best design and fitness DesignMulti's private loop produced under
// multi_test.go's two seeds, recorded at the last commit that had it.
const (
	multiGoldenSeed9Best     = "ILTVPVIYFKNEIIKLKPSAPHVKIAAAYKLSDSQDLGDLSLQHTFVISRQNTETRVRCFQEYPSPDITFEDNRILHDQHTFIPDTDVDALPGSENNELKLFMLMPKAARGSGGSDLHLR"
	multiGoldenSeed9Fitness  = 0.2543476637770219
	multiGoldenSeed21Best    = "RVKHHELFIEEISSKMRAERALQLSATDQAPTEPFSDDLADDFDDSDKMNEFFRGCNADCDPEGHIFIAKRLTGQNFSTVKKFANAFKVQNSTICKISGGEELSGSLYMYKHVEMIEVLK"
	multiGoldenSeed21Fitness = 0.0
)

func TestDesignMultiRuns(t *testing.T) {
	_, eng := setup(t)
	targets := []int{0, 1}
	nts := []int{5, 6, 7}
	opts := designOpts(20, 5, 9)
	opts.WarmStart = true
	res := designMulti(t, targets, nts, opts)
	if res.Generations != 5 {
		t.Errorf("generations %d", res.Generations)
	}
	det := res.BestDetail
	min := math.Min(eng.Score(res.Best, 0, 1), eng.Score(res.Best, 1, 1))
	if det.Target != min {
		t.Errorf("Target %v != weakest target score %v", det.Target, min)
	}
	if det.Target != 0.4488200038542042 || det.MaxNonTarget != 0.43329695291468145 || det.AvgNonTarget != 0.3980405988203137 {
		t.Errorf("best detail %+v diverged from the DesignMulti golden", det)
	}
	wantFit := (1 - det.MaxNonTarget) * det.Target
	if math.Abs(det.Fitness-wantFit) > 1e-9 {
		t.Errorf("fitness %f != decomposition %f", det.Fitness, wantFit)
	}
	if res.Best.Residues() != multiGoldenSeed9Best || det.Fitness != multiGoldenSeed9Fitness {
		t.Errorf("best %q fitness %v diverged from the DesignMulti golden", res.Best.Residues(), det.Fitness)
	}
}

func TestDesignMultiDeterministic(t *testing.T) {
	opts := designOpts(12, 3, 21)
	a := designMulti(t, []int{2, 3}, []int{9}, opts)
	b := designMulti(t, []int{2, 3}, []int{9}, opts)
	if a.Best.Residues() != b.Best.Residues() {
		t.Error("multi-target design not deterministic under seed")
	}
	if a.Best.Residues() != multiGoldenSeed21Best || a.BestDetail.Fitness != multiGoldenSeed21Fitness {
		t.Errorf("best %q fitness %v diverged from the DesignMulti golden", a.Best.Residues(), a.BestDetail.Fitness)
	}
}

// TestCoTargetJournalConservation: a co-target run is an ordinary
// Designer run, so every journal record names its strategy and accounts
// for the whole population, and its checkpoints are stamped with a
// fingerprint a single-target Designer refuses.
func TestCoTargetJournalConservation(t *testing.T) {
	_, eng := setup(t)
	dir := t.TempDir()
	j, err := obs.OpenJournal(dir, obs.JournalOptions{CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	opts := designOpts(12, 5, 4)
	opts.WarmStart = true
	opts.Journal = j
	designMulti(t, []int{0, 1}, []int{5, 6}, opts)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadJournal(obs.JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("journal has %d records, want 5", len(recs))
	}
	for _, rec := range recs {
		if rec.Population != 12 || rec.AccountedCandidates() != rec.Population || rec.Strategy != "ga" {
			t.Errorf("gen %d: strategy %q accounted %d of population %d",
				rec.Generation, rec.Strategy, rec.AccountedCandidates(), rec.Population)
		}
	}
	cp, err := obs.LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewDesigner(Problem{Engine: eng, TargetID: 0, NonTargetIDs: []int{1, 5, 6}}, designOpts(12, 5, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Resume(cp); err == nil {
		t.Error("co-target checkpoint resumed on a problem that lists the co-target as a non-target")
	}
}
