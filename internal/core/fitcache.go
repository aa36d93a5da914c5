package core

import (
	"fmt"

	"repro/internal/evalbackend"
)

// The fitness memo cache lives in internal/evalbackend (it is the
// WithFitnessCache middleware's store); these aliases keep the
// historical core-level names working for embedders such as the insipsd
// job store.

// FitnessCache memoizes candidate evaluations across generations and
// Designers. See evalbackend.FitnessCache.
type FitnessCache = evalbackend.FitnessCache

// DefaultFitnessCacheSize bounds a Designer's private memo cache when
// Options does not supply a shared one.
const DefaultFitnessCacheSize = evalbackend.DefaultFitnessCacheSize

// NewFitnessCache returns a cache bounded to maxEntries (<= 0 means
// DefaultFitnessCacheSize).
func NewFitnessCache(maxEntries int) *FitnessCache {
	return evalbackend.NewFitnessCache(maxEntries)
}

// Fingerprint hashes everything a candidate's score decomposition
// depends on besides its own residues: the engine's similarity database
// fingerprint (proteome + index configuration), the scoring parameters,
// the interaction graph edges, and the design problem's target,
// co-target and non-target IDs. Two Designers sharing a FitnessCache
// exchange hits iff their fingerprints match. Co-targets extend the
// hash only when present, so fingerprints (and the checkpoints stamped
// with them) of single-target problems are unchanged. The engine's part
// is one FNV-1a stream, hashed once per engine
// (pipe.Engine.ScoringFingerprint); the problem's IDs continue it.
func (p Problem) Fingerprint() uint64 {
	s := fmt.Sprintf("t%d;nt%v", p.TargetID, p.NonTargetIDs)
	if len(p.CoTargetIDs) > 0 {
		s += fmt.Sprintf(";co%v", p.CoTargetIDs)
	}
	return fnv64aAppend(p.Engine.ScoringFingerprint(), s)
}

// fnv64aAppend continues the 64-bit FNV-1a hash whose state is h over
// the bytes of s, as hash/fnv's New64a does on Write.
func fnv64aAppend(h uint64, s string) uint64 {
	const prime = 1099511628211
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
