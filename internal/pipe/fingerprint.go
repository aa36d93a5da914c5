package pipe

import (
	"fmt"
	"hash/fnv"

	"repro/internal/seq"
)

// fingerprint hashes everything an engine's similarity data depends on:
// the proteome (names and residues, in order) and the similarity-search
// parameters. Its input starts "v2": the format version of the offline
// database files it once stamped. Checkpoints store the value and a
// resume compares it, so the hashed bytes must not change.
func fingerprint(proteins []seq.Sequence, cfg Config) uint64 {
	h := fnv.New64a()
	write := func(s string) {
		_, _ = h.Write([]byte(s))
		_, _ = h.Write([]byte{0})
	}
	write(fmt.Sprintf("v2 w%d k%d t%d", cfg.Index.Window, cfg.Index.SeedLen, cfg.Index.Threshold))
	write(cfg.Index.Matrix.Name())
	write(cfg.Index.Reduced.Name())
	for _, p := range proteins {
		write(p.Name())
		write(p.Residues())
	}
	return h.Sum64()
}

// Fingerprint returns the fingerprint of the given proteome and
// configuration — what insipsd checks an embedder's engine against and
// a checkpoint's problem identity starts from. Defaults are applied to
// cfg first, so Fingerprint(p, Config{}) matches an engine built with
// New(p, g, Config{}, 0).
func Fingerprint(proteins []seq.Sequence, cfg Config) uint64 {
	return fingerprint(proteins, cfg.withDefaults())
}

// Fingerprint returns the engine's own fingerprint, computed on the
// first call: the proteome and configuration never change after New.
func (e *Engine) Fingerprint() uint64 {
	e.fpOnce.Do(func() {
		proteins := make([]seq.Sequence, e.index.NumProteins())
		for i := range proteins {
			proteins[i] = e.index.Protein(i)
		}
		e.fp = fingerprint(proteins, e.cfg)
	})
	return e.fp
}

// ScoringFingerprint hashes everything the engine's scores depend on:
// its fingerprint, its scoring parameters and its interaction graph's
// edges. It is the FNV-1a hash of a fixed text, which
// core.Problem.Fingerprint goes on hashing a design problem into;
// checkpoints store that value, so the text must not change. It is
// computed on the first call.
func (e *Engine) ScoringFingerprint() uint64 {
	e.scoringFPOnce.Do(func() {
		h := fnv.New64a()
		cfg := e.cfg
		fmt.Fprintf(h, "eng:%016x;", e.Fingerprint())
		fmt.Fprintf(h, "score:%g,%d,%t,%g,%g,%g,%d,%d,%g,%g;",
			cfg.CellSupport, cfg.FilterRadius, cfg.Unfiltered, cfg.TopFrac,
			cfg.ScoreScale, cfg.Pseudocount, cfg.MinOcc, cfg.MinEvidence,
			cfg.WeightScale, cfg.WeightCap)
		e.graph.Edges(func(a, b int) bool {
			fmt.Fprintf(h, "e%d,%d;", a, b)
			return true
		})
		e.scoringFP = h.Sum64()
	})
	return e.scoringFP
}
