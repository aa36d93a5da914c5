package ga

import "math/rand"

// SlotSeed hashes (seed, gen, slot, stream) into the seed of one
// construction slot's random stream. SplitMix64-style mixing
// decorrelates nearby (gen, slot) pairs; stream salts distinct decision
// kinds within one slot (the GA uses stream 0 only). No
// cross-generation RNG state exists, so restored runs draw identical
// streams.
func SlotSeed(seed int64, gen, slot int, stream uint64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(gen)*0xBF58476D1CE4E5B9 +
		uint64(slot)*0x94D049BB133111EB + stream*0xD6E8FEB86659FD93 + 1
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// NewSlotRand returns the generator a searcher reseeds once per
// construction slot: Seed(SlotSeed(...)) then a handful of draws. Its
// streams are those of rand.New(rand.NewSource(seed)), bit for bit, but
// seeding is O(1) instead of a 607-word refill (see lazySource).
func NewSlotRand() *rand.Rand {
	src := &lazySource{}
	src.Seed(0)
	return rand.New(src)
}

// math/rand's generator is an additive lagged Fibonacci register of
// rngLen words with a tap rngTap behind the feed; Seed fills it from a
// Lehmer sequence x_k = seedMul^k · x_0 mod seedMod XORed with a fixed
// table (rngCooked in the standard library's rng.go).
const (
	rngLen  = 607
	rngTap  = 273
	seedMod = 1<<31 - 1
	seedMul = 48271
	// seedSkip Lehmer steps precede the first register word; every word
	// then consumes three.
	seedSkip = 20
)

// seedPow[i] is seedMul^(seedSkip+1+3i) mod seedMod: the multiplier
// that takes a seed straight to the first Lehmer value of word i.
var seedPow = func() (pow [rngLen]uint64) {
	p := uint64(1)
	for k := 0; k <= seedSkip; k++ {
		p = p * seedMul % seedMod
	}
	for i := range pow {
		pow[i] = p
		p = p * seedMul % seedMod * seedMul % seedMod * seedMul % seedMod
	}
	return pow
}()

// lehmerWord is register word i for reduced seed x0, before the table
// is XORed in.
func lehmerWord(x0 uint64, i int) int64 {
	x := seedPow[i] * x0 % seedMod // both factors < 2^31
	u := int64(x) << 40
	x = x * seedMul % seedMod
	u ^= int64(x) << 20
	x = x * seedMul % seedMod
	return u ^ int64(x)
}

// rngCooked is the standard library's table, recovered from the first
// rngLen outputs of a standard source rather than copied, so it cannot
// drift from the toolchain this binary was built with. Output n
// (1-based) is cur[feed]+cur[tap], stored at feed, with feed = 334-n
// and tap = 607-n (mod 607). From n = 274 on, the tap word is an
// earlier output (n-273), which gives the initial register at that
// feed; the first 273 outputs then give the rest, their tap words being
// initial words already known.
var rngCooked = func() (cooked [rngLen]int64) {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var out [rngLen + 1]int64
	for n := 1; n <= rngLen; n++ {
		out[n] = int64(src.Uint64())
	}
	var reg [rngLen]int64
	for n := rngTap + 1; n <= rngLen; n++ {
		reg[(2*rngLen-rngTap-n)%rngLen] = out[n] - out[n-rngTap]
	}
	for n := 1; n <= rngTap; n++ {
		reg[rngLen-rngTap-n] = out[n] - reg[rngLen-n]
	}
	for i := range cooked {
		cooked[i] = reg[i] ^ lehmerWord(seed, i)
	}
	return cooked
}()

// lazySource is math/rand's seeded source with the register filled on
// first touch. A construction slot draws three or four numbers, which
// touch six or eight of the 607 words; computing each from a
// precomputed power of the Lehmer multiplier (three modular multiplies)
// makes Seed O(1) where the standard source refills all 607.
type lazySource struct {
	tap, feed int
	x0        uint64                     // seed reduced into [1, seedMod)
	filled    [(rngLen + 63) / 64]uint64 // bit i set: vec[i] is current
	vec       [rngLen]int64
}

func (s *lazySource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= seedMod
	if seed < 0 {
		seed += seedMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.filled = [len(s.filled)]uint64{}
}

// word returns register word i, filling it if this seed has not yet.
func (s *lazySource) word(i int) int64 {
	if w, bit := i>>6, uint64(1)<<(i&63); s.filled[w]&bit == 0 {
		s.filled[w] |= bit
		s.vec[i] = lehmerWord(s.x0, i) ^ rngCooked[i]
	}
	return s.vec[i]
}

func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

func (s *lazySource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
