package netcluster

import (
	"bytes"
	"encoding/gob"
	"runtime"
	"strings"
	"testing"
)

// fuzzSeedMsgs are the chunks, honest and impossible, whose gob encodings
// seed FuzzTaskMsgThroughBudgetReader. They are encoded from the live
// struct, so they follow the wire format; testdata/fuzz holds their
// protocol-version-4 bytes and a few hostile length prefixes.
func fuzzSeedMsgs() map[string]taskMsg {
	cand := func(i int, residues, parent, parentB string) candidate {
		return candidate{Index: i, Attempt: 1, Name: "cand", Residues: residues, Parent: parent, ParentB: parentB}
	}
	a, b, c := strings.Repeat("ACDEFGHIKL", 4), strings.Repeat("MNPQRSTVWY", 4), strings.Repeat("LKIHGFEDCA", 4)
	return map[string]taskMsg{
		"heartbeat": {Heartbeat: true},
		"end":       {End: true},
		"chunk-with-keep": {Round: 7, RoundSize: 3, GenAware: true,
			Tasks: []candidate{cand(0, a, b, c), cand(2, b, a, "")}, Keep: []string{c}},
		"chunk-without-hints": {Round: 1, RoundSize: 2, Tasks: []candidate{cand(1, a, "", "")}},
		"keep-longer-than-round": {Round: 2, RoundSize: 1, GenAware: true,
			Tasks: []candidate{cand(0, a, "", "")}, Keep: []string{b, c}},
		"keep-without-genaware": {Round: 2, RoundSize: 2, Tasks: []candidate{cand(0, a, "", "")}, Keep: []string{b}},
		"oversized-keep": {Round: 3, RoundSize: 2, GenAware: true,
			Tasks: []candidate{cand(0, a, "", "")}, Keep: []string{strings.Repeat("A", 4096)}},
		"more-tasks-than-round": {Round: 4, RoundSize: 1, Tasks: []candidate{cand(0, a, "", ""), cand(1, b, "", "")}},
		"not-a-protein":         {Round: 5, RoundSize: 1, Tasks: []candidate{cand(0, "NOT A PROTEIN 123", "", "")}},
		"many-empty-candidates": {Round: 6, RoundSize: 1 << 20, Tasks: make([]candidate, 512), Keep: make([]string, 512)},
	}
}

// FuzzTaskMsgThroughBudgetReader feeds arbitrary bytes to the worker's
// read path — a gob decoder behind a budgetReader armed with
// maxTaskMsgBytes, then chunkSeqs — and checks what the bounds promise:
// no panic, no more bytes taken than the budget, memory bounded by the
// bytes taken (gob reads a message in chunks of at most 10 MiB whatever
// length its prefix claims, and the in-memory form of an empty candidate
// is 88 bytes for one on the wire, so neither the constant nor the factor
// is small), and from an accepted chunk no more sequences or hint keys
// than its RoundSize allows, none longer than the residue bound.
func FuzzTaskMsgThroughBudgetReader(f *testing.F) {
	for _, msg := range fuzzSeedMsgs() {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(msg); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{0xf8, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) // a length prefix of 2^63-1
	const maxResidues = 400
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		in := &budgetReader{r: src, left: maxTaskMsgBytes}
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		start := mem.TotalAlloc
		checkAlloc := func(taken int64) {
			runtime.ReadMemStats(&mem)
			if grew := int64(mem.TotalAlloc - start); grew > 16<<20+256*taken {
				t.Fatalf("%d bytes allocated for a message of %d", grew, taken)
			}
		}
		var msg taskMsg
		err := gob.NewDecoder(in).Decode(&msg)
		taken := int64(len(data) - src.Len())
		if taken > maxTaskMsgBytes || in.left != maxTaskMsgBytes-taken {
			t.Fatalf("decoder took %d bytes on a budget of %d (%d left)", taken, maxTaskMsgBytes, in.left)
		}
		checkAlloc(taken)
		if err != nil || msg.Heartbeat || msg.End {
			return
		}
		seqs, hints, second, err := chunkSeqs(msg, maxResidues)
		checkAlloc(taken)
		if err != nil {
			return
		}
		if len(seqs) == 0 || len(seqs) > msg.RoundSize || len(hints) > 2*msg.RoundSize || len(second) > len(seqs) {
			t.Fatalf("round of %d: %d sequences, %d hint keys, %d second parents", msg.RoundSize, len(seqs), len(hints), len(second))
		}
		if len(hints) > len(seqs) && !msg.GenAware {
			t.Fatalf("%d hint keys for %d sequences of a round that is not generation-aware", len(hints), len(seqs))
		}
		for child, parent := range hints {
			if max(len(child), len(parent), len(second[child])) > maxResidues {
				t.Fatalf("hint past the %d-residue bound", maxResidues)
			}
		}
	})
}
