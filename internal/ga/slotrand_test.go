package ga

import (
	"math/rand"
	"testing"
)

// sameStream draws n rounds of every method the searchers use from both
// generators and reports the first difference.
func sameStream(t testing.TB, got, want *rand.Rand, n int) {
	t.Helper()
	for d := 0; d < n; d++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("draw %d: Uint64 %d, stdlib %d", d, g, w)
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("draw %d: Int63 %d, stdlib %d", d, g, w)
		}
		if g, w := got.Float64(), want.Float64(); g != w {
			t.Fatalf("draw %d: Float64 %v, stdlib %v", d, g, w)
		}
		if g, w := got.Intn(60), want.Intn(60); g != w {
			t.Fatalf("draw %d: Intn %d, stdlib %d", d, g, w)
		}
	}
}

// TestLazySourceMatchesStdlib pins the lazily filled source to
// math/rand's, bit for bit: the seeds Seed treats specially (0 and the
// multiples of 2^31-1 reduce to the same fallback, negatives wrap), and
// draw counts from one to well past a full turn of the 607-word
// register, where every word has been both lazily filled and
// overwritten. One generator serves the whole grid, as in a searcher.
func TestLazySourceMatchesStdlib(t *testing.T) {
	got := NewSlotRand()
	for _, seed := range []int64{0, 1, -1, 1<<31 - 1, 1<<31 - 2, 89482311, -(1 << 62)} {
		for _, draws := range []int{1, 5, 300, 607, 2000} {
			got.Seed(seed)
			sameStream(t, got, rand.New(rand.NewSource(seed)), draws)
		}
	}
}

func FuzzSlotSourceMatchesStdlib(f *testing.F) {
	f.Add(int64(0), uint16(4))
	f.Add(int64(1<<31-1), uint16(607))
	f.Add(int64(-1<<63), uint16(1300))
	f.Add(SlotSeed(42, 3, 17, 0), uint16(8))
	got := NewSlotRand()
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		got.Seed(seed)
		sameStream(t, got, rand.New(rand.NewSource(seed)), int(draws%2048))
	})
}

// BenchmarkSlotReseed is one construction slot's use of its stream —
// reseed, then four draws — on the standard source and on the lazy one.
// cmd/benchpipe gates their same-run ratio.
func BenchmarkSlotReseed(b *testing.B) {
	for _, c := range []struct {
		name string
		rng  *rand.Rand
	}{
		{"stdlib", rand.New(rand.NewSource(0))},
		{"lazy", NewSlotRand()},
	} {
		b.Run(c.name, func(b *testing.B) {
			var sink int64
			for i := 0; i < b.N; i++ {
				c.rng.Seed(SlotSeed(7, i>>8, i&255, 0))
				sink += c.rng.Int63() + c.rng.Int63() + c.rng.Int63() + c.rng.Int63()
			}
			benchSink = sink
		})
	}
}

var benchSink int64
