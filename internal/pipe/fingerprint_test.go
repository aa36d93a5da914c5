package pipe

import (
	"testing"

	"repro/internal/simindex"
)

func TestFingerprintHelpers(t *testing.T) {
	pr, eng := testSetup(t)
	if got, want := Fingerprint(pr.Proteins, Config{}), eng.Fingerprint(); got != want {
		t.Errorf("Fingerprint(proteome, zero config) = %x, engine says %x", got, want)
	}
}

// Every checkpoint stores its engine's fingerprint and a resume
// compares it, so the values are pinned: a change to the hashed input
// (its "v2" prefix, the order of its fields) would make every stored
// checkpoint refuse to resume.
func TestFingerprintPinned(t *testing.T) {
	pr, _ := testSetup(t)
	for _, c := range []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"defaults", Config{}, 0x5fa149090863f335},
		{"w18 k4 t40", Config{Index: simindex.Config{Window: 18, SeedLen: 4, Threshold: 40}}, 0x14597303c1a72233},
	} {
		if got := Fingerprint(pr.Proteins, c.cfg); got != c.want {
			t.Errorf("%s: Fingerprint = %#x, want %#x", c.name, got, c.want)
		}
	}
}
