package pipe

import (
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"

	"repro/internal/ppigraph"
	"repro/internal/seq"
	"repro/internal/simindex"
)

// ErrStaleDB reports a persisted similarity database whose fingerprint
// (or format version) does not match the proteome and configuration it
// is being applied to. Callers detect it with errors.Is and direct the
// user to rebuild the artifact with cmd/buildpipedb.
var ErrStaleDB = errors.New("similarity database is stale")

// The paper's workers never compute the natural proteins' similarity
// data online: "the preprocessing is completed offline, beforehand, for
// the known natural proteins and stored in a database which is among the
// data loaded and broadcast by the master process". SaveDB/LoadDB give
// this repository the same offline artifact: the per-protein similarity
// profiles, the expensive part of Engine construction, serialized with
// a fingerprint of the proteome and configuration so a stale database
// cannot be applied to the wrong inputs.

// dbFileVersion guards the on-disk format. Version 2 switched the
// profiles from the map form to the flat CSR form (simindex.FlatProfile);
// version-1 files are reported stale and must be rebuilt with
// cmd/buildpipedb.
const dbFileVersion = 2

// dbFile is the gob-encoded database layout.
type dbFile struct {
	Version     int
	Fingerprint uint64
	Profiles    []simindex.FlatProfile
}

// fingerprint hashes everything the profiles depend on: the proteome
// (names and residues, in order) and the similarity-search parameters.
func fingerprint(proteins []seq.Sequence, cfg Config) uint64 {
	h := fnv.New64a()
	write := func(s string) {
		_, _ = h.Write([]byte(s))
		_, _ = h.Write([]byte{0})
	}
	write(fmt.Sprintf("v%d w%d k%d t%d", dbFileVersion,
		cfg.Index.Window, cfg.Index.SeedLen, cfg.Index.Threshold))
	write(cfg.Index.Matrix.Name())
	write(cfg.Index.Reduced.Name())
	for _, p := range proteins {
		write(p.Name())
		write(p.Residues())
	}
	return h.Sum64()
}

// Fingerprint returns the database fingerprint of the given proteome and
// configuration — the cache key a persisted database (or a long-running
// service's engine cache) is validated against. Defaults are applied to
// cfg first, so Fingerprint(p, Config{}) matches an engine built with
// New(p, g, Config{}, n).
func Fingerprint(proteins []seq.Sequence, cfg Config) uint64 {
	return fingerprint(proteins, cfg.withDefaults())
}

// Fingerprint returns the engine's own fingerprint: the value SaveDB
// stamps on the persisted database.
func (e *Engine) Fingerprint() uint64 {
	proteins := make([]seq.Sequence, e.index.NumProteins())
	for i := range proteins {
		proteins[i] = e.index.Protein(i)
	}
	return fingerprint(proteins, e.cfg)
}

// DBFingerprint reads just the fingerprint stamped on a persisted
// similarity database file, without decoding the profiles. It lets a
// caller check staleness before committing to a full load.
func DBFingerprint(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	// gob skips stream fields absent from the receiver, so decoding into
	// the header-only view avoids materializing the profiles.
	var header struct {
		Version     int
		Fingerprint uint64
	}
	if err := gob.NewDecoder(f).Decode(&header); err != nil {
		return 0, fmt.Errorf("pipe: reading similarity database header: %w", err)
	}
	if header.Version != dbFileVersion {
		return 0, fmt.Errorf("pipe: database version %d, want %d: %w",
			header.Version, dbFileVersion, ErrStaleDB)
	}
	return header.Fingerprint, nil
}

// SaveDB writes the engine's precomputed similarity database to w.
func (e *Engine) SaveDB(w io.Writer) error {
	return gob.NewEncoder(w).Encode(dbFile{
		Version:     dbFileVersion,
		Fingerprint: e.Fingerprint(),
		Profiles:    e.DBProfiles(),
	})
}

// SaveDBFile writes the similarity database to a file.
func (e *Engine) SaveDBFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := e.SaveDB(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// NewFromDB builds an engine like New but loads the per-protein
// similarity profiles from r instead of recomputing them (the expensive
// step). The database must have been produced by SaveDB for the same
// proteome and configuration; a fingerprint mismatch is an error.
func NewFromDB(proteins []seq.Sequence, g *ppigraph.Graph, cfg Config, r io.Reader) (*Engine, error) {
	cfg = cfg.withDefaults()
	if g.NumProteins() != len(proteins) {
		return nil, fmt.Errorf("pipe: %d proteins but graph has %d vertices", len(proteins), g.NumProteins())
	}
	var file dbFile
	if err := gob.NewDecoder(r).Decode(&file); err != nil {
		return nil, fmt.Errorf("pipe: reading similarity database: %w", err)
	}
	if file.Version != dbFileVersion {
		return nil, fmt.Errorf("pipe: database version %d, want %d: %w",
			file.Version, dbFileVersion, ErrStaleDB)
	}
	if got := fingerprint(proteins, cfg); file.Fingerprint != got {
		return nil, fmt.Errorf("pipe: database fingerprint %x does not match proteome/config %x: %w",
			file.Fingerprint, got, ErrStaleDB)
	}
	return NewFromProfiles(proteins, g, cfg, file.Profiles)
}

// NewFromDBFile is NewFromDB reading from a file.
func NewFromDBFile(proteins []seq.Sequence, g *ppigraph.Graph, cfg Config, path string) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return NewFromDB(proteins, g, cfg, f)
}
