package seq

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestReadFASTABasic(t *testing.T) {
	in := ">P1 some description\nMKTAY\nIAK\n\n>P2\nAAAA\n"
	seqs, err := ReadFASTA(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadFASTA: %v", err)
	}
	if len(seqs) != 2 {
		t.Fatalf("got %d records, want 2", len(seqs))
	}
	if seqs[0].Name() != "P1" || seqs[0].Residues() != "MKTAYIAK" {
		t.Errorf("record 0 = %v %q", seqs[0].Name(), seqs[0].Residues())
	}
	if seqs[1].Name() != "P2" || seqs[1].Residues() != "AAAA" {
		t.Errorf("record 1 = %v %q", seqs[1].Name(), seqs[1].Residues())
	}
}

func TestReadFASTAErrors(t *testing.T) {
	cases := []string{
		"MKTAY\n",        // residues before header
		">\nMKTAY\n",     // empty header
		">P1\nMKTXXJ1\n", // invalid residue
	}
	for _, in := range cases {
		if _, err := ReadFASTA(strings.NewReader(in)); err == nil {
			t.Errorf("ReadFASTA(%q) succeeded, want error", in)
		}
	}
}

func TestReadFASTAEmpty(t *testing.T) {
	seqs, err := ReadFASTA(strings.NewReader(""))
	if err != nil || len(seqs) != 0 {
		t.Errorf("empty input: %v, %d records", err, len(seqs))
	}
}

func TestWriteFASTAWraps(t *testing.T) {
	s := MustNew("long", strings.Repeat("ACDEF", 30)) // 150 aa
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, []Sequence{s}, 60); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 { // header + 60 + 60 + 30
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
	if len(lines[1]) != 60 || len(lines[3]) != 30 {
		t.Errorf("wrap widths %d/%d", len(lines[1]), len(lines[3]))
	}
}

func TestFASTARoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var seqs []Sequence
	for i := 0; i < 20; i++ {
		seqs = append(seqs, Random(rng, names(i), 10+rng.Intn(300), YeastComposition()))
	}
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, seqs, 0); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFASTA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(seqs) {
		t.Fatalf("round trip count %d != %d", len(back), len(seqs))
	}
	for i := range seqs {
		if back[i].Name() != seqs[i].Name() || back[i].Residues() != seqs[i].Residues() {
			t.Errorf("record %d mismatch", i)
		}
	}
}

func names(i int) string { return string(rune('A'+i%26)) + "seq" }

// FuzzReadFASTA: ReadFASTA never panics, and the records it accepts come
// back equal — names, residues, order — through WriteFASTA and ReadFASTA
// at any line width.
func FuzzReadFASTA(f *testing.F) {
	f.Add(">P1 some description\nMKTAY\nIAK\n\n>P2\nAAAA\n", 60)
	f.Add(">>odd\r\n  mktay  \n>empty\n>P3\tdesc\nACDEFGHIKLMNPQRSTVWY\n", 7)
	f.Add("MKTAY\n", 0)
	f.Add(">P1\nMKTXXJ1\n", 3)
	f.Add(">\nMKTAY\n", 1)
	f.Fuzz(func(t *testing.T, in string, width int) {
		seqs, err := ReadFASTA(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFASTA(&buf, seqs, width%200); err != nil {
			t.Fatal(err)
		}
		back, err := ReadFASTA(&buf)
		if err != nil {
			t.Fatalf("ReadFASTA of WriteFASTA's output %q: %v", buf.String(), err)
		}
		if !slices.Equal(back, seqs) {
			t.Fatalf("round trip changed the records: %q came back as %q", in, buf.String())
		}
	})
}

func TestFASTAFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prot.fasta")
	seqs := []Sequence{MustNew("X1", "MKTAY"), MustNew("X2", "AAAA")}
	if err := SaveFASTAFile(path, seqs); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFASTAFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].Residues() != "MKTAY" {
		t.Errorf("file round trip: %v", back)
	}
	if _, err := LoadFASTAFile(filepath.Join(dir, "missing.fasta")); err == nil {
		t.Error("loading missing file succeeded")
	}
}
