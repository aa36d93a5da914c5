package obs

import (
	"bufio"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// Journal file layout inside a run directory:
//
//	<dir>/journal.jsonl    one GenerationRecord per line, append-only
//	<dir>/checkpoint.gob   latest Checkpoint, atomically replaced
//
// The JSONL journal is the cheap, always-on stream — tail it with any
// text tool, serve it over HTTP, or replay it into learning curves
// (cmd/experiments -from-journal). The gob checkpoint is the restart
// point: a full population snapshot written every CheckpointEvery
// generations and on cancellation.
const (
	journalFile    = "journal.jsonl"
	checkpointFile = "checkpoint.gob"
)

// JournalPath returns the JSONL record path inside a run directory.
func JournalPath(dir string) string { return filepath.Join(dir, journalFile) }

// CheckpointPath returns the checkpoint path inside a run directory.
func CheckpointPath(dir string) string { return filepath.Join(dir, checkpointFile) }

// GenerationRecord is one journal line: everything an operator needs to
// judge a generation without re-running it. Zero-valued distributed
// fields are omitted for in-process runs.
type GenerationRecord struct {
	Generation int   `json:"gen"`
	TimeUnixMS int64 `json:"t_ms"`

	// Fitness statistics of the evaluated population.
	BestFitness float64 `json:"best"`
	MeanFitness float64 `json:"mean"`
	MinFitness  float64 `json:"min"`

	// Score decomposition of the generation's fittest individual — the
	// three series of the paper's Figure 7.
	Target       float64 `json:"target"`
	MaxNonTarget float64 `json:"max_nt"`
	AvgNonTarget float64 `json:"avg_nt"`

	BestEverFitness float64 `json:"best_ever"`
	NewBest         bool    `json:"new_best,omitempty"`

	// PopHash is the FNV-64a hash (hex) of the evaluated population's
	// residues in slot order: two runs diverge exactly where their pop
	// hashes first differ, the determinism debugging tool.
	PopHash string `json:"pop_hash"`

	// Cache and evaluation accounting for this generation.
	Evaluated int `json:"evaluated"`  // candidates actually scored (memo misses)
	CacheHits int `json:"cache_hits"` // candidates served from the fitness memo cache
	// AbandonedTasks counts candidates the evaluation backend gave up on
	// (e.g. netcluster quarantine) and that scored zero fitness this
	// generation; Evaluated + CacheHits + AbandonedTasks covers the
	// population (plus SurrogateEstimated in old journals).
	AbandonedTasks int     `json:"abandoned,omitempty"`
	EvalWallMS     float64 `json:"eval_ms"` // wall time of the evaluation batch
	GenWallMS      float64 `json:"gen_ms"`  // wall time of the whole generation

	// Population is the number of candidates submitted this generation —
	// the right-hand side of the accounting invariant above. Zero in
	// records written before the field existed (the invariant is then
	// unverifiable and CheckAccounting skips it).
	Population int `json:"population,omitempty"`

	// SurrogateEstimated counts candidates a since-removed surrogate
	// pre-scorer answered with a model estimate instead of a real PIPE
	// evaluation. Nothing writes it now; it stays because journals from
	// builds that had the pre-scorer need it to balance the conservation
	// identity, and because the benchmark harness reads it (as 0 now).
	// Those journals may also carry surrogate_trained and surrogate_mae;
	// decoding ignores both.
	SurrogateEstimated int `json:"surrogate_estimated,omitempty"`

	// Window-table and delta-preprocessing stats (zero/omitted when the
	// run's backend is not the in-process pool). Deltas since the
	// previous record; purely performance telemetry — none of these
	// affect scores, and they sit outside the conservation law below.
	// WinCacheHits/Misses count window-content lookups in the natural
	// proteome's window table during preprocessing (a hit is natural
	// content, whether its list was filled yet or not); DeltaQueries counts
	// candidates preprocessed incrementally from a retained parent query.
	// All three are engine-wide: the difference of the engine's counters
	// around the generation's evaluation, so they include every other
	// run on the same engine meanwhile — the islands of a ring, insipsd's
	// queue workers. Two S40 jobs at once on one engine journaled 2.00×
	// the engine's lookups, four 2.77×; only a single run's records sum
	// to its own cost.
	WinCacheHits   int64 `json:"wincache_hits,omitempty"`
	WinCacheMisses int64 `json:"wincache_misses,omitempty"`
	DeltaQueries   int64 `json:"delta_queries,omitempty"`
	// WinCacheEvicted is no longer written: the window table never
	// evicts. It stays so that journals written while the window cache
	// had an LRU bound still decode into it, and because the benchmark
	// harness reads it (as 0 now).
	WinCacheEvicted int64 `json:"wincache_evicted,omitempty"`
	// Journals written by older builds may also carry stolen_batches
	// (sharded local runs) and hedged_wins (the hedging middleware);
	// decoding ignores both.

	// Distributed-evaluation stats, stamped by the run owner when a
	// netcluster master is the backend (deltas since the previous record).
	Workers       int   `json:"workers,omitempty"`
	TasksReissued int64 `json:"tasks_reissued,omitempty"`
	LeasesExpired int64 `json:"leases_expired,omitempty"`

	// Strategy names the search strategy that produced this generation
	// ("ga", "beam", "anneal"). Empty in records written before
	// pluggable strategies existed (implicitly the GA).
	Strategy string `json:"strategy,omitempty"`

	// StrategyCounters carries the per-strategy counters of this
	// generation, embedded so each counter keeps its own omitempty (GA
	// records stay byte-compatible with the pre-strategy format).
	StrategyCounters

	// Checkpointed marks records after which a checkpoint was written:
	// staged when the line is appended, installed right after it.
	Checkpointed bool `json:"checkpointed,omitempty"`
}

// StrategyCounters holds the per-generation counters specific to one
// search strategy (internal/search). Exactly one strategy's group is
// populated per record; every field is zero for GA generations. A flat
// comparable struct (no maps/slices) keeps GenerationRecord usable as a
// value in golden-trajectory comparisons.
type StrategyCounters struct {
	// Beam search: the configured beam width, the number of distinct
	// child sequences in the next batch (diversity signal), and the
	// extra expansions granted to the elite node this step.
	BeamWidth          int `json:"beam_width,omitempty"`
	BeamUniqueChildren int `json:"beam_unique,omitempty"`
	BeamEliteExtra     int `json:"beam_elite_extra,omitempty"`

	// Simulated annealing: the step's temperature, proposals accepted,
	// and the subset of acceptances that were uphill (worse-fitness)
	// Metropolis moves.
	AnnealTemperature float64 `json:"anneal_temp,omitempty"`
	AnnealAccepted    int     `json:"anneal_accepted,omitempty"`
	AnnealUphill      int     `json:"anneal_uphill,omitempty"`

	// Journals written by builds that had the landscape-analysis mode
	// may also carry landscape_optima, landscape_restarts and
	// landscape_neutral_accepts; decoding ignores them.
}

// AccountedCandidates sums the ways a submitted candidate can be
// resolved: a real evaluation, a fitness-cache hit, an abandoned task,
// or (only in journals of builds that had the surrogate pre-scorer) a
// surrogate estimate. When Population is set, this sum must equal it —
// the journal's conservation law, checked by CheckAccounting.
func (r GenerationRecord) AccountedCandidates() int {
	return r.Evaluated + r.CacheHits + r.AbandonedTasks + r.SurrogateEstimated
}

// CheckAccounting returns an error wrapping ErrAccounting when r carries
// a Population that AccountedCandidates does not match: a candidate the
// evaluation chain lost or counted twice. A record without a Population
// is unverifiable and passes.
func (r GenerationRecord) CheckAccounting() error {
	if r.Population > 0 && r.AccountedCandidates() != r.Population {
		return fmt.Errorf("obs: generation %d: evaluated %d + cache hits %d + abandoned %d + estimated %d != population %d: %w",
			r.Generation, r.Evaluated, r.CacheHits, r.AbandonedTasks, r.SurrogateEstimated, r.Population, ErrAccounting)
	}
	return nil
}

// SequenceRecord is a journal-portable protein sequence.
type SequenceRecord struct {
	Name     string
	Residues string
}

// CurveRecord is one restored learning-curve point inside a checkpoint.
type CurveRecord struct {
	Generation   int
	Fitness      float64
	Target       float64
	MaxNonTarget float64
	AvgNonTarget float64
}

// checkpointVersion guards the gob schema; bump on incompatible change.
const checkpointVersion = 1

// Checkpoint is a full GA restart point. The construction of every
// generation is deterministic in (Seed, generation, slot) — package ga
// derives each slot's random stream, holding no cross-generation RNG
// state — so the unevaluated population, the generation counter and the
// best-ever individual are sufficient to resume bit-identically.
type Checkpoint struct {
	Version int
	// ProblemFP fingerprints the engine + target set the run was started
	// with; ResumeContext refuses a checkpoint from a different problem.
	ProblemFP uint64
	// GASeed and PopulationSize double-check the GA parameters.
	GASeed         int64
	PopulationSize int

	// Generation is the number of completed (evaluated) generations;
	// Population is the not-yet-evaluated population those generations
	// produced, in slot order.
	Generation int
	Population []SequenceRecord

	// Best-ever tracking, mirrored from the GA engine and the Designer.
	BestEver    SequenceRecord
	BestEverGen int
	BestFitness float64
	BestTarget  float64
	BestMaxNT   float64
	BestAvgNT   float64

	// Curve is the learning-curve prefix up to Generation.
	Curve []CurveRecord

	// Strategy tags the search strategy that wrote the checkpoint.
	// Empty in checkpoints written before pluggable strategies existed,
	// which resume treats as "ga". A Designer configured with a
	// different strategy refuses the checkpoint — strategy state is not
	// interchangeable even when the batch shapes happen to agree.
	Strategy string

	// SearchState is the strategy's opaque private state blob
	// (Searcher.State): annealing chains. Nil for strategies whose
	// candidate batch is self-describing (ga, beam).
	SearchState []byte
}

// Validate rejects structurally unusable checkpoints before a resume
// tries to run with them.
func (cp Checkpoint) Validate() error {
	if cp.Version != checkpointVersion {
		return fmt.Errorf("obs: checkpoint version %d, want %d", cp.Version, checkpointVersion)
	}
	if cp.Generation <= 0 {
		return fmt.Errorf("obs: checkpoint at generation %d has nothing to resume", cp.Generation)
	}
	if len(cp.Population) == 0 || len(cp.Population) != cp.PopulationSize {
		return fmt.Errorf("obs: checkpoint population %d does not match population size %d",
			len(cp.Population), cp.PopulationSize)
	}
	if len(cp.Curve) != cp.Generation {
		return fmt.Errorf("obs: checkpoint curve has %d points for %d generations",
			len(cp.Curve), cp.Generation)
	}
	return nil
}

// JournalOptions tunes a RunJournal.
type JournalOptions struct {
	// CheckpointEvery is the generation cadence of full population
	// checkpoints. Default 25; negative disables checkpoints (records
	// only).
	CheckpointEvery int
	// Logger receives journal lifecycle events (open, checkpoint, close).
	Logger *Logger
}

func (o JournalOptions) withDefaults() JournalOptions {
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 25
	}
	return o
}

// RunJournal owns one run directory: it appends generation records to
// journal.jsonl (each line flushed to the OS immediately, so a crashed
// process loses at most the in-flight line) and replaces checkpoint.gob
// atomically. Safe for concurrent use.
type RunJournal struct {
	dir  string
	opts JournalOptions

	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	records int
	closed  bool
}

// OpenJournal creates (MkdirAll) the run directory and opens the record
// stream for appending — an interrupted run's journal is continued, not
// truncated, so one directory accumulates the full pre- and post-resume
// history.
func OpenJournal(dir string, opts JournalOptions) (*RunJournal, error) {
	opts = opts.withDefaults()
	if dir == "" {
		return nil, errors.New("obs: empty journal directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: creating journal directory: %w", err)
	}
	f, err := os.OpenFile(JournalPath(dir), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: opening journal: %w", err)
	}
	opts.Logger.Debug("journal open", "dir", dir, "checkpoint_every", opts.CheckpointEvery)
	return &RunJournal{dir: dir, opts: opts, f: f, w: bufio.NewWriter(f)}, nil
}

// Dir returns the run directory.
func (j *RunJournal) Dir() string { return j.dir }

// Records returns the number of records appended by this process.
func (j *RunJournal) Records() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// ErrAccounting marks a generation record that breaks the candidate
// conservation identity (see AccountedCandidates): double- or
// under-counting in the evaluation chain.
var ErrAccounting = errors.New("generation accounting invariant violated")

// Append writes one record as a JSON line and flushes it to the OS.
// A record that breaks the candidate conservation identity (see
// CheckAccounting) is still written, so the evidence lands in the
// journal, and Append then returns CheckAccounting's error; any other
// error means the record was not written.
func (j *RunJournal) Append(rec GenerationRecord) error {
	if err := j.write(rec); err != nil {
		return err
	}
	return rec.CheckAccounting()
}

// write appends rec as one flushed JSON line.
func (j *RunJournal) write(rec GenerationRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("obs: encoding record: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("obs: journal closed")
	}
	if _, err := j.w.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("obs: appending record: %w", err)
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("obs: flushing record: %w", err)
	}
	j.records++
	return nil
}

// ShouldCheckpoint reports whether a checkpoint is due after gen
// completed generations.
func (j *RunJournal) ShouldCheckpoint(gen int) bool {
	if j == nil || j.opts.CheckpointEvery <= 0 {
		return false
	}
	return gen > 0 && gen%j.opts.CheckpointEvery == 0
}

// WriteCheckpoint durably replaces the run's checkpoint: gob-encoded to
// a temp file, fsynced, then renamed over checkpoint.gob so a crash
// mid-write never corrupts the previous restart point.
func (j *RunJournal) WriteCheckpoint(cp Checkpoint) error {
	install, err := j.StageCheckpoint(cp)
	if err != nil {
		return err
	}
	return install(true)
}

// StageCheckpoint is WriteCheckpoint up to the rename: the checkpoint is
// in a synced temp file, and install(true) renames it over
// checkpoint.gob, install(false) removes it. A caller that journals the
// generation the checkpoint closes appends that line in between: a
// process killed there restarts from the checkpoint before and runs the
// generation again, where the other order would resume past a
// generation the journal never got. install must be called, once.
func (j *RunJournal) StageCheckpoint(cp Checkpoint) (install func(commit bool) error, err error) {
	cp.Version = checkpointVersion
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp(j.dir, checkpointFile+".tmp*")
	if err != nil {
		return nil, fmt.Errorf("obs: checkpoint temp file: %w", err)
	}
	if err := gob.NewEncoder(tmp).Encode(cp); err != nil {
		err = fmt.Errorf("obs: encoding checkpoint: %w", err)
	} else if err = tmp.Sync(); err != nil {
		err = fmt.Errorf("obs: syncing checkpoint: %w", err)
	}
	if cerr := tmp.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("obs: closing checkpoint: %w", cerr)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return nil, err
	}
	return func(commit bool) error {
		defer os.Remove(tmp.Name()) // no-op after a successful rename
		if !commit {
			return nil
		}
		if err := os.Rename(tmp.Name(), CheckpointPath(j.dir)); err != nil {
			return fmt.Errorf("obs: installing checkpoint: %w", err)
		}
		j.opts.Logger.Debug("checkpoint written", "dir", j.dir, "generation", cp.Generation)
		return nil
	}, nil
}

// Close flushes and closes the record stream. Idempotent.
func (j *RunJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	err := j.w.Flush()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.opts.Logger.Debug("journal closed", "dir", j.dir, "records", j.records)
	return err
}

// ErrNoCheckpoint is returned by LoadCheckpoint when the run directory
// has no checkpoint to resume from.
var ErrNoCheckpoint = errors.New("obs: no checkpoint in journal directory")

// LoadCheckpoint reads and validates the run directory's checkpoint.
func LoadCheckpoint(dir string) (Checkpoint, error) {
	f, err := os.Open(CheckpointPath(dir))
	if errors.Is(err, fs.ErrNotExist) {
		return Checkpoint{}, fmt.Errorf("%w: %s", ErrNoCheckpoint, dir)
	}
	if err != nil {
		return Checkpoint{}, fmt.Errorf("obs: opening checkpoint: %w", err)
	}
	defer f.Close()
	var cp Checkpoint
	if err := gob.NewDecoder(f).Decode(&cp); err != nil {
		return Checkpoint{}, fmt.Errorf("obs: decoding checkpoint %s: %w", CheckpointPath(dir), err)
	}
	if err := cp.Validate(); err != nil {
		return Checkpoint{}, err
	}
	return cp, nil
}

// ReadJournal parses every record of a journal.jsonl file. Unparseable
// lines (a torn final write from a crash) terminate the read without
// error: everything before them is returned.
func ReadJournal(path string) ([]GenerationRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("obs: opening journal: %w", err)
	}
	defer f.Close()
	var out []GenerationRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec GenerationRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			break // torn tail: keep what parsed
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("obs: reading journal: %w", err)
	}
	return out, nil
}
