package core

import (
	"context"
	"os"
	"testing"

	"repro/internal/obs"
)

// FuzzLoadCheckpoint writes arbitrary bytes as a run directory's
// checkpoint.gob. obs.LoadCheckpoint must return an error, or a
// checkpoint that ResumeContext either rejects or runs for two more
// generations without a panic. The seeds are a real checkpoint of this
// package's test problem, whole and cut short.
func FuzzLoadCheckpoint(f *testing.F) {
	_, eng := setup(f)
	problem := Problem{Engine: eng, TargetID: 0, NonTargetIDs: []int{1, 2}}
	seedDir := f.TempDir()
	j, err := obs.OpenJournal(seedDir, obs.JournalOptions{CheckpointEvery: 1})
	if err != nil {
		f.Fatal(err)
	}
	opts := designOpts(8, 2, 5)
	opts.Journal = j
	if _, err := Design(eng, problem.TargetID, problem.NonTargetIDs, opts); err != nil {
		f.Fatal(err)
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(obs.CheckpointPath(seedDir))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(obs.CheckpointPath(dir), data, 0o644); err != nil {
			t.Fatal(err)
		}
		cp, err := obs.LoadCheckpoint(dir)
		if err != nil {
			return
		}
		d, err := NewDesigner(problem, designOpts(8, cp.Generation+2, 5))
		if err != nil {
			t.Fatal(err)
		}
		d.ResumeContext(context.Background(), cp) // an error or a result, never a panic
	})
}
