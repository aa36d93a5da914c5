package core

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/evalbackend"
	"repro/internal/netcluster"
	"repro/internal/obs"
	"repro/internal/seq"
)

// populationSeqs extracts the residue sequences of a Designer's current
// population for hashing.
func populationSeqs(d *Designer) []seq.Sequence {
	inds := d.Population()
	out := make([]seq.Sequence, len(inds))
	for i, ind := range inds {
		out[i] = ind.Seq
	}
	return out
}

// runFull drives a fresh Designer to termination and returns the result
// plus the hash of the final (unevaluated) population.
func runFull(t *testing.T, opts Options, journalDir string) (Result, string) {
	t.Helper()
	_, eng := setup(t)
	if journalDir != "" {
		j, err := obs.OpenJournal(journalDir, obs.JournalOptions{CheckpointEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		opts.Journal = j
	}
	d, err := NewDesigner(Problem{Engine: eng, TargetID: 0, NonTargetIDs: []int{1, 2}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res, PopulationHash(populationSeqs(d))
}

// runInterruptedThenResumed cancels a run mid-flight, reloads its
// checkpoint and resumes with a fresh Designer, returning the resumed
// result and final population hash.
func runInterruptedThenResumed(t *testing.T, opts Options, journalDir string, cancelAfter int) (Result, string) {
	t.Helper()
	_, eng := setup(t)

	j, err := obs.OpenJournal(journalDir, obs.JournalOptions{CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gens := 0
	interruptedOpts := opts
	interruptedOpts.Journal = j
	interruptedOpts.OnGeneration = func(CurvePoint) {
		gens++
		if gens == cancelAfter {
			cancel()
		}
	}
	d1, err := NewDesigner(Problem{Engine: eng, TargetID: 0, NonTargetIDs: []int{1, 2}}, interruptedOpts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d1.RunContext(ctx); err != context.Canceled {
		t.Fatalf("interrupted run error = %v, want context.Canceled", err)
	}
	// The journal stays open across the interruption in-process; a real
	// restart reopens it, which is what we exercise here.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	cp, err := obs.LoadCheckpoint(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Generation != cancelAfter {
		t.Fatalf("checkpoint at generation %d, cancelled after %d", cp.Generation, cancelAfter)
	}
	j2, err := obs.OpenJournal(journalDir, obs.JournalOptions{CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	resumedOpts := opts
	resumedOpts.Journal = j2
	d2, err := NewDesigner(Problem{Engine: eng, TargetID: 0, NonTargetIDs: []int{1, 2}}, resumedOpts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d2.ResumeContext(context.Background(), cp)
	if err != nil {
		t.Fatal(err)
	}
	return res, PopulationHash(populationSeqs(d2))
}

// assertBitIdentical compares an uninterrupted run against an
// interrupt-and-resume run: curve, best design and final population must
// match exactly, and the two journals must agree on every generation's
// population hash — the strongest determinism witness the journal records.
func assertBitIdentical(t *testing.T, full, resumed Result, fullHash, resumedHash, fullDir, resumedDir string) {
	t.Helper()
	if full.Generations != resumed.Generations {
		t.Fatalf("generations: full %d, resumed %d", full.Generations, resumed.Generations)
	}
	for g := range full.Curve {
		if full.Curve[g] != resumed.Curve[g] {
			t.Fatalf("curve diverges at generation %d:\nfull    %+v\nresumed %+v",
				g, full.Curve[g], resumed.Curve[g])
		}
	}
	if full.Best.Residues() != resumed.Best.Residues() {
		t.Error("best sequences differ")
	}
	if full.BestDetail != resumed.BestDetail {
		t.Errorf("best detail differs: full %+v, resumed %+v", full.BestDetail, resumed.BestDetail)
	}
	if fullHash != resumedHash {
		t.Errorf("final population hashes differ: full %s, resumed %s", fullHash, resumedHash)
	}

	fullRecs, err := obs.ReadJournal(obs.JournalPath(fullDir))
	if err != nil {
		t.Fatal(err)
	}
	resumedRecs, err := obs.ReadJournal(obs.JournalPath(resumedDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(fullRecs) != len(resumedRecs) {
		t.Fatalf("journal lengths differ: full %d, resumed %d", len(fullRecs), len(resumedRecs))
	}
	for g := range fullRecs {
		if fullRecs[g].PopHash != resumedRecs[g].PopHash {
			t.Fatalf("journal pop hash diverges at generation %d: %s vs %s",
				g, fullRecs[g].PopHash, resumedRecs[g].PopHash)
		}
		if fullRecs[g].BestFitness != resumedRecs[g].BestFitness {
			t.Fatalf("journal best fitness diverges at generation %d", g)
		}
	}
}

// TestResumeBitIdenticalInProcess is the golden resume test for the
// in-process evaluation path: interrupt at generation 5 of 12, resume
// from the checkpoint, and require the result to be indistinguishable
// from a run that was never interrupted.
func TestResumeBitIdenticalInProcess(t *testing.T) {
	opts := designOpts(14, 12, 123)
	fullDir, resumedDir := t.TempDir(), t.TempDir()
	full, fullHash := runFull(t, opts, fullDir)
	resumed, resumedHash := runInterruptedThenResumed(t, opts, resumedDir, 5)
	assertBitIdentical(t, full, resumed, fullHash, resumedHash, fullDir, resumedDir)
}

// TestResumeBitIdenticalNetcluster repeats the golden resume test with a
// netcluster master/worker pair as the evaluation backend: distributed
// evaluation must not perturb resume determinism (scores are
// position-independent, so out-of-order task completion is invisible).
func TestResumeBitIdenticalNetcluster(t *testing.T) {
	_, eng := setup(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m := netcluster.NewMaster(netcluster.NewSetup(eng, 0, []int{1, 2}, 1), ln)
	t.Cleanup(func() { m.Close() })
	workerCtx, stopWorker := context.WithCancel(context.Background())
	t.Cleanup(stopWorker)
	go netcluster.RunWorkerLoop(workerCtx, m.Addr(), netcluster.WorkerOptions{})

	opts := designOpts(12, 8, 321)
	opts.Backend = evalbackend.NewMaster(m)
	fullDir, resumedDir := t.TempDir(), t.TempDir()
	full, fullHash := runFull(t, opts, fullDir)
	resumed, resumedHash := runInterruptedThenResumed(t, opts, resumedDir, 3)
	assertBitIdentical(t, full, resumed, fullHash, resumedHash, fullDir, resumedDir)
}

// TestResumeRejectsMismatchedCheckpoint: a checkpoint must only resume
// the run that wrote it — same problem, seed and population size.
func TestResumeRejectsMismatchedCheckpoint(t *testing.T) {
	_, eng := setup(t)
	dir := t.TempDir()
	opts := designOpts(10, 6, 77)
	_, _ = runInterruptedThenResumed(t, opts, dir, 3) // leaves a valid checkpoint behind
	cp, err := obs.LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		problem Problem
		mutate  func(*Options)
		errPart string
	}{
		{"different problem", Problem{Engine: eng, TargetID: 3, NonTargetIDs: []int{1, 2}}, func(*Options) {}, "problem"},
		{"different seed", Problem{Engine: eng, TargetID: 0, NonTargetIDs: []int{1, 2}}, func(o *Options) { o.GA.Seed = 9999 }, "seed"},
		{"different population", Problem{Engine: eng, TargetID: 0, NonTargetIDs: []int{1, 2}}, func(o *Options) { o.GA.PopulationSize = 20 }, "population"},
	}
	for _, c := range cases {
		o := designOpts(10, 6, 77)
		c.mutate(&o)
		d, err := NewDesigner(c.problem, o)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Resume(cp); err == nil || !strings.Contains(err.Error(), c.errPart) {
			t.Errorf("%s: Resume error = %v, want mention of %q", c.name, err, c.errPart)
		}
	}

	// A used Designer refuses to resume.
	d, err := NewDesigner(Problem{Engine: eng, TargetID: 0, NonTargetIDs: []int{1, 2}}, designOpts(10, 2, 77))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Resume(cp); err == nil {
		t.Error("used Designer accepted Resume")
	}

	// A structurally broken checkpoint is rejected before any GA state moves.
	bad := cp
	bad.Curve = bad.Curve[:1]
	d2, err := NewDesigner(Problem{Engine: eng, TargetID: 0, NonTargetIDs: []int{1, 2}}, designOpts(10, 6, 77))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d2.Resume(bad); err == nil {
		t.Error("invalid checkpoint accepted")
	}
}

// TestJournalRecordsAccounting: the journal must reflect real evaluation
// accounting — cache hits plus evaluations cover the population, the
// cadence checkpoints are flagged, and curve decomposition matches.
func TestJournalRecordsAccounting(t *testing.T) {
	_, eng := setup(t)
	dir := t.TempDir()
	j, err := obs.OpenJournal(dir, obs.JournalOptions{CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	opts := designOpts(10, 7, 5)
	opts.Journal = j
	var streamed []obs.GenerationRecord
	opts.OnJournalRecord = func(rec *obs.GenerationRecord) {
		streamed = append(streamed, *rec)
	}
	res, err := Design(eng, 0, []int{1, 2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadJournal(obs.JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != res.Generations || len(streamed) != res.Generations {
		t.Fatalf("journal %d records, streamed %d, ran %d generations", len(recs), len(streamed), res.Generations)
	}
	for g, rec := range recs {
		if rec.Generation != g {
			t.Errorf("record %d has generation %d", g, rec.Generation)
		}
		if rec.Evaluated+rec.CacheHits != 10 {
			t.Errorf("gen %d: evaluated %d + cache hits %d != population 10", g, rec.Evaluated, rec.CacheHits)
		}
		if rec.Population != 10 || rec.AccountedCandidates() != rec.Population {
			t.Errorf("gen %d: accounted %d of population %d", g, rec.AccountedCandidates(), rec.Population)
		}
		if rec.SurrogateEstimated != 0 {
			t.Errorf("gen %d: run carries surrogate estimates: %+v", g, rec)
		}
		if rec.BestFitness != res.Curve[g].Fitness {
			t.Errorf("gen %d: journal best %f != curve %f", g, rec.BestFitness, res.Curve[g].Fitness)
		}
		if rec.Target != res.Curve[g].Target || rec.MaxNonTarget != res.Curve[g].MaxNonTarget {
			t.Errorf("gen %d: journal decomposition differs from curve", g)
		}
		if len(rec.PopHash) != 16 {
			t.Errorf("gen %d: pop hash %q not 16 hex chars", g, rec.PopHash)
		}
		// Cadence 3 plus the mandatory final checkpoint.
		wantCkpt := (g+1)%3 == 0 || g == len(recs)-1
		if rec.Checkpointed != wantCkpt {
			t.Errorf("gen %d: checkpointed = %v, want %v", g, rec.Checkpointed, wantCkpt)
		}
		if rec != streamed[g] {
			t.Errorf("gen %d: streamed record differs from journaled record", g)
		}
	}
	// The surviving checkpoint is the final one and can seed a Designer.
	cp, err := obs.LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Generation != res.Generations {
		t.Errorf("final checkpoint at generation %d, run finished at %d", cp.Generation, res.Generations)
	}
}

// TestDesignerCountsAccountingViolations: a generation record that
// breaks the conservation identity (here a hook counts one candidate
// twice in generation 2) is still journaled and checkpointed, and the
// run reports it in Result.InvariantViolations; a run with consistent
// records, with or without a journal, reports none.
func TestDesignerCountsAccountingViolations(t *testing.T) {
	_, eng := setup(t)
	run := func(dir string, tamper bool) Result {
		t.Helper()
		opts := designOpts(10, 4, 5)
		if dir != "" {
			j, err := obs.OpenJournal(dir, obs.JournalOptions{CheckpointEvery: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			opts.Journal = j
		}
		if tamper {
			opts.OnJournalRecord = func(rec *obs.GenerationRecord) {
				if rec.Generation == 2 {
					rec.CacheHits++
				}
			}
		}
		res, err := Design(eng, 0, []int{1, 2}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := run(t.TempDir(), false); res.InvariantViolations != 0 {
		t.Fatalf("consistent run reported %d violations", res.InvariantViolations)
	}
	if res := run("", true); res.InvariantViolations != 0 {
		t.Fatalf("a run without a journal reported %d violations", res.InvariantViolations)
	}
	dir := t.TempDir()
	res := run(dir, true)
	if res.InvariantViolations != 1 {
		t.Fatalf("one miscounted generation: %d violations reported", res.InvariantViolations)
	}
	recs, err := obs.ReadJournal(obs.JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || recs[2].AccountedCandidates() != recs[2].Population+1 || !recs[2].Checkpointed {
		t.Fatalf("miscounted generation not journaled and checkpointed: %+v", recs)
	}
	if cp, err := obs.LoadCheckpoint(dir); err != nil || cp.Generation != 4 {
		t.Fatalf("final checkpoint: %v, %v", cp, err)
	}
}

// underReporting is the in-process pool as a leaf that scores every
// candidate but reports one task fewer per round than it scored.
type underReporting struct{ *evalbackend.PoolBackend }

func (u underReporting) Stats() evalbackend.Stats {
	st := u.PoolBackend.Stats()
	st[evalbackend.Tasks] -= st[evalbackend.Rounds]
	return st
}

// TestDesignerCountsViolationsWithoutJournal: a run with no journal and
// no record hook still checks each generation's accounting, so a leaf
// that under-reports its tasks shows in Result.InvariantViolations.
func TestDesignerCountsViolationsWithoutJournal(t *testing.T) {
	_, eng := setup(t)
	opts := designOpts(10, 4, 5)
	pool, err := evalbackend.NewPool(eng, 0, []int{1, 2}, opts.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	opts.Backend = underReporting{pool}
	res, err := Design(eng, 0, []int{1, 2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.InvariantViolations == 0 || res.InvariantViolations > res.Generations {
		t.Fatalf("%d violations over %d generations of an under-reporting leaf, want 1 to %d",
			res.InvariantViolations, res.Generations, res.Generations)
	}
}

// TestJournalLineLandsBeforeItsCheckpoint: a generation's journal line is
// appended before the checkpoint that closes it is installed, so a
// process killed between the two resumes from the checkpoint before and
// runs the generation again — never past a generation the journal did
// not get. The rename that installs a checkpoint is made to fail (a
// non-empty directory sits where checkpoint.gob goes): every checkpointed
// generation's line is in the journal all the same, saying a checkpoint
// was staged for it. In the other order the line would have been written
// after the failed install and said otherwise.
func TestJournalLineLandsBeforeItsCheckpoint(t *testing.T) {
	_, eng := setup(t)
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(obs.CheckpointPath(dir), "in-the-way"), 0o755); err != nil {
		t.Fatal(err)
	}
	j, err := obs.OpenJournal(dir, obs.JournalOptions{CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	opts := designOpts(10, 4, 5)
	opts.Journal = j
	res, err := Design(eng, 0, []int{1, 2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadJournal(obs.JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != res.Generations || res.Generations < 4 {
		t.Fatalf("journal holds %d lines for %d generations", len(recs), res.Generations)
	}
	for g, rec := range recs {
		if want := (g+1)%2 == 0 || g == len(recs)-1; rec.Checkpointed != want {
			t.Errorf("generation %d: line says checkpointed = %v, want %v", g, rec.Checkpointed, want)
		}
	}
	if _, err := obs.LoadCheckpoint(dir); err == nil {
		t.Error("a checkpoint was installed over a directory")
	}
	if left, _ := filepath.Glob(obs.CheckpointPath(dir) + ".tmp*"); len(left) != 0 {
		t.Errorf("staged checkpoints left behind: %v", left)
	}
}
