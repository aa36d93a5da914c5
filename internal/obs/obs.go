// Package obs is the observability layer of the design pipeline: the
// run journal, structured tracing, and per-stage timing histograms that
// turn a multi-day GA campaign from a black box into something an
// operator can watch, profile, and restart.
//
// The paper's campaigns ran for days on a Blue Gene/Q rack with no
// visibility beyond the final sequences; a crash lost everything. This
// package provides the three missing capabilities:
//
//   - RunJournal appends one JSONL GenerationRecord per GA generation
//     (fitness statistics, population hash, memo-cache hit counts, eval
//     wall time, worker/lease stats) and periodically writes a full
//     population Checkpoint (gob, atomically renamed into place) from
//     which core.Designer.ResumeContext restarts a run bit-identically
//     — the GA derives every random draw from (seed, generation, slot),
//     so restoring the population, the generation counter and the
//     best-ever individual is sufficient for determinism.
//
//   - Logger wraps log/slog with nil-safe span-style helpers; the same
//     logger is injected into core.Options, server.Config and
//     netcluster's master/worker options, replacing ad-hoc log.Printf
//     with levelled, structured run → generation → round events.
//
//   - Registry collects named Histogram values (log-spaced duration
//     buckets, lock-free observation) for each pipeline stage — GA
//     operators, PIPE evaluation, distributed dispatch and collection —
//     and renders them in Prometheus text exposition format next to the
//     existing insipsd and netcluster counters.
//
// Everything is stdlib-only and safe for concurrent use.
package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"time"
)

// Stage names used across the pipeline. Histograms are keyed by these
// so every layer lands in one coherent /metrics exposition.
const (
	// StageGACopy / StageGAMutate / StageGACrossover are the per-generation
	// accumulated time spent in each GA operator while constructing the
	// next population.
	StageGACopy      = "ga_copy"
	StageGAMutate    = "ga_mutate"
	StageGACrossover = "ga_crossover"
	// StageEval is the wall time of one generation's PIPE evaluation
	// batch (cache misses only), whichever backend ran it.
	StageEval = "pipe_eval"
	// StageEvalTask is the per-candidate PIPE scoring time inside the
	// in-process pool, one observation per candidate evaluated: all its
	// target/non-target scores. Preprocessing is batched across the
	// generation and is not in the span; only the per-candidate
	// reference path (cluster.EvaluateAllReport) includes it.
	StageEvalTask = "pipe_eval_task"
	// StageDispatch is the time a distributed task waited in the master's
	// queue before a worker leased it (re-issues restart the clock).
	StageDispatch = "dispatch"
	// StageCollect is the lease-to-result latency of a distributed task:
	// from dispatch to the master accepting the worker's result.
	StageCollect = "collect"
	// StageGeneration is the wall time of one whole GA generation
	// (evaluation plus next-population construction plus journaling).
	StageGeneration = "generation"
	// StageCheckpoint is the time spent writing one population checkpoint.
	StageCheckpoint = "checkpoint"
)

// Logger is a nil-safe structured logger with span-style helpers. A nil
// *Logger discards everything, so call sites need no guards; construct
// with NewLogger (or NewTextLogger/NewJSONLogger) to enable output.
type Logger struct {
	s *slog.Logger
}

// NewLogger wraps an slog handler.
func NewLogger(h slog.Handler) *Logger {
	if h == nil {
		return nil
	}
	return &Logger{s: slog.New(h)}
}

// NewTextLogger logs human-readable key=value lines at or above level.
func NewTextLogger(w io.Writer, level slog.Level) *Logger {
	return NewLogger(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
}

// NewJSONLogger logs one JSON object per line at or above level.
func NewJSONLogger(w io.Writer, level slog.Level) *Logger {
	return NewLogger(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level}))
}

// Enabled reports whether the logger emits anything at all.
func (l *Logger) Enabled() bool { return l != nil && l.s != nil }

// With returns a logger whose every record carries the given attributes
// (the span-nesting mechanism: a run logger begets a generation logger).
func (l *Logger) With(args ...any) *Logger {
	if !l.Enabled() {
		return nil
	}
	return &Logger{s: l.s.With(args...)}
}

func (l *Logger) log(level slog.Level, msg string, args ...any) {
	if !l.Enabled() {
		return
	}
	l.s.Log(context.Background(), level, msg, args...)
}

// Debug logs at slog.LevelDebug.
func (l *Logger) Debug(msg string, args ...any) { l.log(slog.LevelDebug, msg, args...) }

// Info logs at slog.LevelInfo.
func (l *Logger) Info(msg string, args ...any) { l.log(slog.LevelInfo, msg, args...) }

// Warn logs at slog.LevelWarn.
func (l *Logger) Warn(msg string, args ...any) { l.log(slog.LevelWarn, msg, args...) }

// Error logs at slog.LevelError.
func (l *Logger) Error(msg string, args ...any) { l.log(slog.LevelError, msg, args...) }

// Span logs "<name> start" at Debug and returns a func that logs
// "<name> end" with the elapsed duration plus any extra attributes —
// the lightweight tracing primitive behind run → generation →
// evaluation-batch → netcluster-round events:
//
//	end := logger.Span("round", "tasks", len(seqs))
//	... work ...
//	end("completed", n)
//
// On a nil logger both calls are free no-ops.
func (l *Logger) Span(name string, args ...any) func(extra ...any) {
	if !l.Enabled() {
		return func(...any) {}
	}
	l.log(slog.LevelDebug, name+" start", args...)
	begin := time.Now()
	return func(extra ...any) {
		all := make([]any, 0, len(args)+len(extra)+2)
		all = append(all, args...)
		all = append(all, extra...)
		all = append(all, "duration_ms", float64(time.Since(begin))/float64(time.Millisecond))
		l.log(slog.LevelDebug, name+" end", all...)
	}
}

// ParseLevel maps a CLI-friendly level name to an slog.Level.
func ParseLevel(name string) (slog.Level, error) {
	switch name {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug, info, warn or error)", name)
}
