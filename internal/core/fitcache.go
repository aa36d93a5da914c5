package core

import (
	"fmt"
	"hash/fnv"

	"repro/internal/evalbackend"
	"repro/internal/pipe"
)

// The fitness memo cache lives in internal/evalbackend (it is the
// WithFitnessCache middleware's store); these aliases keep the
// historical core-level names working for embedders such as the insipsd
// job store.

// FitnessCache memoizes candidate evaluations across generations and
// Designers. See evalbackend.FitnessCache.
type FitnessCache = evalbackend.FitnessCache

// FitnessCacheStats is a point-in-time snapshot of cache effectiveness.
type FitnessCacheStats = evalbackend.FitnessCacheStats

// DefaultFitnessCacheSize bounds a Designer's private memo cache when
// Options does not supply a shared one.
const DefaultFitnessCacheSize = evalbackend.DefaultFitnessCacheSize

// NewFitnessCache returns a cache bounded to maxEntries (<= 0 means
// DefaultFitnessCacheSize).
func NewFitnessCache(maxEntries int) *FitnessCache {
	return evalbackend.NewFitnessCache(maxEntries)
}

// ProblemFingerprint hashes everything a candidate's score decomposition
// depends on besides its own residues: the engine's similarity database
// fingerprint (proteome + index configuration), the scoring parameters,
// the interaction graph edges, and the design problem's target and
// non-target IDs. Two Designers sharing a FitnessCache exchange hits iff
// their fingerprints match.
func ProblemFingerprint(engine *pipe.Engine, targetID int, nonTargetIDs []int) uint64 {
	return Problem{Engine: engine, TargetID: targetID, NonTargetIDs: nonTargetIDs}.Fingerprint()
}

// Fingerprint is ProblemFingerprint over the whole problem: co-targets
// extend the hash only when present, so fingerprints (and the
// checkpoints stamped with them) of single-target problems are
// unchanged.
func (p Problem) Fingerprint() uint64 {
	engine := p.Engine
	h := fnv.New64a()
	cfg := engine.Config()
	fmt.Fprintf(h, "eng:%016x;", engine.Fingerprint())
	fmt.Fprintf(h, "score:%g,%d,%t,%g,%g,%g,%d,%d,%g,%g;",
		cfg.CellSupport, cfg.FilterRadius, cfg.Unfiltered, cfg.TopFrac,
		cfg.ScoreScale, cfg.Pseudocount, cfg.MinOcc, cfg.MinEvidence,
		cfg.WeightScale, cfg.WeightCap)
	engine.Graph().Edges(func(a, b int) bool {
		fmt.Fprintf(h, "e%d,%d;", a, b)
		return true
	})
	fmt.Fprintf(h, "t%d;nt%v", p.TargetID, p.NonTargetIDs)
	if len(p.CoTargetIDs) > 0 {
		fmt.Fprintf(h, ";co%v", p.CoTargetIDs)
	}
	return h.Sum64()
}
