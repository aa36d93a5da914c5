package simindex

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/seq"
	"repro/internal/yeastgen"
)

// buildPerPosition is Build with its seed table counted and then filled
// from ReduceKmer at every k-mer start, each pass reducing every k-mer
// again: the build before the keys rolled. It is the reference Build is
// tested and timed against.
func buildPerPosition(prots []seq.Sequence, cfg Config) *Index {
	cfg = cfg.withDefaults()
	ix := &Index{
		cfg:      cfg,
		proteins: prots,
		indices:  make([][]int8, len(prots)),
		winBase:  make([]int32, len(prots)+1),
		protOff:  make([]int32, len(prots)+1),
	}
	for p, s := range prots {
		ix.winBase[p] = int32(ix.totalWins)
		if n := s.Len() - cfg.Window + 1; n > 0 {
			ix.totalWins += n
		}
		ix.protOff[p] = int32(len(ix.flatIdx))
		ix.flatIdx = append(ix.flatIdx, s.Indices()...)
	}
	ix.winBase[len(prots)] = int32(ix.totalWins)
	ix.protOff[len(prots)] = int32(len(ix.flatIdx))
	for p := range prots {
		lo, hi := ix.protOff[p], ix.protOff[p+1]
		ix.indices[p] = ix.flatIdx[lo:hi:hi]
	}
	each := func(fn func(key uint64, ref WinRef)) {
		k := cfg.SeedLen
		for p, s := range prots {
			res := s.Residues()
			for pos := 0; pos+k <= len(res); pos++ {
				if key, ok := cfg.Reduced.ReduceKmer(res, pos, k); ok {
					fn(key, WinRef{Protein: int32(p), Pos: int32(pos)})
				}
			}
		}
	}
	keys := denseKeySpace(cfg)
	if keys == 0 {
		ix.buckets = make(map[uint64][]WinRef)
		each(func(key uint64, ref WinRef) {
			ix.buckets[key] = append(ix.buckets[key], ref)
			ix.posCount++
		})
		return ix
	}
	off := make([]int32, keys+1)
	each(func(key uint64, _ WinRef) { off[key+1]++ })
	for key := 1; key <= keys; key++ {
		off[key] += off[key-1]
	}
	ix.posCount = int(off[keys])
	refs := make([]WinRef, ix.posCount)
	each(func(key uint64, ref WinRef) {
		refs[off[key]] = ref
		off[key]++
	})
	copy(off[1:], off[:keys])
	off[0] = 0
	ix.denseOff, ix.denseRefs = off, refs
	return ix
}

// Build, whose keys roll, is the per-position build field for field,
// under the six index configs on a proteome with exact duplicates and
// proteins shorter than the window.
func TestBuildMatchesPerPosition(t *testing.T) {
	prots := proteomeTestProteome(t, rand.New(rand.NewSource(42)))
	for _, tc := range proteomeConfigs {
		ix, err := Build(prots, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref := buildPerPosition(prots, tc.cfg); !reflect.DeepEqual(ix, ref) {
			t.Fatalf("%s: Build differs from the per-position build", tc.name)
		}
	}
}

// BenchmarkSeedTables times Build against buildPerPosition on the
// end-to-end benchmark's proteome (yeastgen.DefaultParams at
// NumProteins 200: 224 proteins), both inside each iteration, in
// alternating order, and reports the median of their per-iteration
// ratio as build/per-position. cmd/benchpipe gates it.
func BenchmarkSeedTables(b *testing.B) {
	p := yeastgen.DefaultParams()
	p.NumProteins = 200
	pr, err := yeastgen.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	build := func() {
		if _, err := Build(pr.Proteins, Config{}); err != nil {
			b.Fatal(err)
		}
	}
	reference := func() { buildPerPosition(pr.Proteins, Config{}) }
	timed := func(run func()) time.Duration {
		start := time.Now()
		run()
		return time.Since(start)
	}
	ratios := make([]float64, b.N)
	b.ResetTimer()
	for i := range ratios {
		var n, d time.Duration
		if i%2 == 0 {
			n, d = timed(build), timed(reference)
		} else {
			d, n = timed(reference), timed(build)
		}
		ratios[i] = float64(n) / float64(d)
	}
	sort.Float64s(ratios)
	b.ReportMetric(ratios[len(ratios)/2], "build/per-position")
}
