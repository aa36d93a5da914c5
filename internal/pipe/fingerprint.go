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

// Fingerprint returns the engine's own fingerprint.
func (e *Engine) Fingerprint() uint64 {
	proteins := make([]seq.Sequence, e.index.NumProteins())
	for i := range proteins {
		proteins[i] = e.index.Protein(i)
	}
	return fingerprint(proteins, e.cfg)
}
