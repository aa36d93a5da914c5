package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func writeTestJournal(t *testing.T, dir string, distributed bool) string {
	t.Helper()
	j, err := obs.OpenJournal(dir, obs.JournalOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 12; g++ {
		rec := obs.GenerationRecord{
			Generation:      g,
			BestFitness:     0.3 + 0.02*float64(g),
			MeanFitness:     0.2 + 0.02*float64(g),
			MinFitness:      0.1,
			Target:          0.4 + 0.02*float64(g),
			MaxNonTarget:    0.3,
			AvgNonTarget:    0.2,
			BestEverFitness: 0.3 + 0.02*float64(g),
			NewBest:         g%3 == 0,
			PopHash:         "deadbeefdeadbeef",
			Evaluated:       30,
			CacheHits:       10,
			EvalWallMS:      5,
			GenWallMS:       6,
			Checkpointed:    g == 10,
		}
		if distributed {
			rec.Workers = 4
			rec.TasksReissued = 1
		}
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestReplayJournal(t *testing.T) {
	dir := writeTestJournal(t, t.TempDir(), false)
	var out strings.Builder
	dataDir := t.TempDir()
	// The run directory form (not the file path) must work too.
	if err := ReplayJournal(dir, &out, dataDir); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"12 records, generations 0-11",
		"target", "max non-tgt", "avg non-tgt", "best fitness",
		"25.0% hit rate", "1 checkpoints",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("replay output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "cluster:") {
		t.Errorf("in-process journal should not print cluster stats:\n%s", got)
	}
	// A .dat file with all four series lands in dataDir.
	ents, err := os.ReadDir(dataDir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("want one .dat file, got %v (%v)", ents, err)
	}
	data, err := os.ReadFile(filepath.Join(dataDir, ents[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"# target", "# max non-target", "# avg non-target", "# best fitness"} {
		if !strings.Contains(string(data), series) {
			t.Errorf("dat file missing series %q", series)
		}
	}
}

func TestReplayJournalDistributed(t *testing.T) {
	dir := writeTestJournal(t, t.TempDir(), true)
	var out strings.Builder
	if err := ReplayJournal(obs.JournalPath(dir), &out, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cluster: 4 workers at last record, 12 tasks reissued") {
		t.Errorf("missing cluster stats line:\n%s", out.String())
	}
}

// TestReplayJournalSurrogate: a journal written by a build that had the
// surrogate pre-scorer, its records carrying surrogate_estimated,
// surrogate_trained and surrogate_mae, still replays, and the replay
// prints no surrogate line.
func TestReplayJournalSurrogate(t *testing.T) {
	dir := t.TempDir()
	var lines []byte
	for g := 0; g < 6; g++ {
		lines = fmt.Appendf(lines, `{"gen":%d,"best":0.3,"best_ever":0.3,"pop_hash":"deadbeefdeadbeef","evaluated":6,"population":40,"surrogate_estimated":34,"surrogate_trained":6,"surrogate_mae":0.05}`+"\n", g)
	}
	if err := os.WriteFile(obs.JournalPath(dir), lines, 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := ReplayJournal(dir, &out, ""); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "6 records, generations 0-5") || !strings.Contains(got, "evaluations: 36 scored") {
		t.Errorf("old surrogate journal replayed wrong:\n%s", got)
	}
	if strings.Contains(got, "surrogate") {
		t.Errorf("replay printed a surrogate line:\n%s", got)
	}
}

func TestReplayJournalErrors(t *testing.T) {
	if err := ReplayJournal(filepath.Join(t.TempDir(), "nope"), &strings.Builder{}, ""); err == nil {
		t.Fatal("want error for missing journal")
	}
	// Empty journal file: no records is an error, not a silent no-op.
	dir := t.TempDir()
	if err := os.WriteFile(obs.JournalPath(dir), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ReplayJournal(dir, &strings.Builder{}, ""); err == nil || !strings.Contains(err.Error(), "no records") {
		t.Fatalf("want no-records error, got %v", err)
	}
}
