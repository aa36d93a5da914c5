package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/search"
)

// runCheckpointed drives a short journaled run under the given search
// config to completion and returns the final checkpoint it left behind.
func runCheckpointed(t *testing.T, sc search.Config, gens int, dir string) obs.Checkpoint {
	t.Helper()
	_, eng := setup(t)
	j, err := obs.OpenJournal(dir, obs.JournalOptions{CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	opts := designOpts(12, gens, 99)
	opts.Journal = j
	opts.Search = sc
	d, err := NewDesigner(Problem{Engine: eng, TargetID: 0, NonTargetIDs: []int{1, 2}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	cp, err := obs.LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// TestResumeRejectsStrategyMismatch: a checkpoint written under one
// -strategy must not resume under another — in particular it must not
// silently continue as the GA. The strategy check fires before the
// population-size check, so the error names the strategy even when the
// batch sizes coincide or differ.
func TestResumeRejectsStrategyMismatch(t *testing.T) {
	_, eng := setup(t)
	beamCfg := search.Config{
		Strategy: search.StrategyBeam,
		Beam:     search.BeamConfig{Width: 3, Expand: 2, EliteExtra: -1}, // batch 6
	}

	beamCP := runCheckpointed(t, beamCfg, 4, t.TempDir())
	if beamCP.Strategy != search.StrategyBeam {
		t.Fatalf("beam checkpoint tagged %q, want %q", beamCP.Strategy, search.StrategyBeam)
	}
	gaCP := runCheckpointed(t, search.Config{}, 4, t.TempDir())
	if gaCP.Strategy != search.StrategyGA {
		t.Fatalf("ga checkpoint tagged %q, want %q", gaCP.Strategy, search.StrategyGA)
	}

	// A checkpoint of the since-deleted landscape mode: its tag and its
	// walkers' state blob name a strategy no Designer can be configured
	// with, so every resume refuses it.
	landCP := gaCP
	landCP.Strategy = "landscape"
	landCP.SearchState = []byte{0x1f, 0xff, 0x81, 0x03, 0x01}

	cases := []struct {
		name string
		cp   obs.Checkpoint
		sc   search.Config
	}{
		{"beam checkpoint, ga designer", beamCP, search.Config{}},
		{"ga checkpoint, beam designer", gaCP, beamCfg},
		{"beam checkpoint, anneal designer", beamCP, search.Config{Strategy: search.StrategyAnneal}},
		{"landscape checkpoint, ga designer", landCP, search.Config{}},
	}
	for _, c := range cases {
		opts := designOpts(12, 8, 99)
		opts.Search = c.sc
		d, err := NewDesigner(Problem{Engine: eng, TargetID: 0, NonTargetIDs: []int{1, 2}}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Resume(c.cp); err == nil || !strings.Contains(err.Error(), "strategy") {
			t.Errorf("%s: Resume error = %v, want mention of \"strategy\"", c.name, err)
		}
	}

	// A pre-strategy checkpoint carries an empty tag: it was necessarily
	// a GA run, so a GA designer accepts it (and only a GA designer).
	legacy := gaCP
	legacy.Strategy = ""
	opts := designOpts(12, 8, 99)
	d, err := NewDesigner(Problem{Engine: eng, TargetID: 0, NonTargetIDs: []int{1, 2}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Resume(legacy); err != nil {
		t.Errorf("legacy untagged GA checkpoint rejected: %v", err)
	}
	optsBeam := designOpts(12, 8, 99)
	optsBeam.Search = beamCfg
	dBeam, err := NewDesigner(Problem{Engine: eng, TargetID: 0, NonTargetIDs: []int{1, 2}}, optsBeam)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dBeam.Resume(legacy); err == nil || !strings.Contains(err.Error(), "strategy") {
		t.Errorf("legacy untagged checkpoint accepted by beam designer: %v", err)
	}

	// The matched pairing still works: a beam checkpoint resumes under
	// the beam designer that shares its knobs.
	optsMatch := designOpts(12, 8, 99)
	optsMatch.Search = beamCfg
	dMatch, err := NewDesigner(Problem{Engine: eng, TargetID: 0, NonTargetIDs: []int{1, 2}}, optsMatch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dMatch.Resume(beamCP); err != nil {
		t.Errorf("matched beam resume failed: %v", err)
	}
}
