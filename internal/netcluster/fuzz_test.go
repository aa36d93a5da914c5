package netcluster

import (
	"bytes"
	"encoding/gob"
	"runtime"
	"strings"
	"testing"

	"repro/internal/simindex"
)

// fuzzSeedMsgs are the chunks, honest and impossible, whose gob encodings
// seed FuzzTaskMsgThroughBudgetReader. They are encoded from the live
// struct, so they follow the wire format; testdata/fuzz holds the
// protocol-version-5 bytes of all but the 64 KiB ones and a few hostile
// length prefixes.
func fuzzSeedMsgs() map[string]taskMsg {
	cand := func(i int, residues, parent, parentB string) candidate {
		return candidate{Index: i, Attempt: 1, Name: "cand", Residues: residues, Parent: parent, ParentB: parentB}
	}
	a, b, c := strings.Repeat("ACDEFGHIKL", 4), strings.Repeat("MNPQRSTVWY", 4), strings.Repeat("LKIHGFEDCA", 4)
	// Two rows over the 21 windows of a 40-residue parent.
	profile := simindex.FlatProfile{IDs: []int32{2, 5}, Offsets: []int32{0, 2, 3},
		Pos: []int32{0, 20, 3}, Score: []int32{40, 36, 52}}.AppendWire(nil)
	return map[string]taskMsg{
		"chunk-with-parents": {Round: 8, RoundSize: 3, GenAware: true,
			Tasks:   []candidate{cand(0, a, b, c), cand(1, b, c, "")},
			Parents: []parentProfile{{b, profile}, {c, profile}}},
		"parent-with-garbled-profile": {Round: 8, RoundSize: 3, GenAware: true,
			Tasks: []candidate{cand(0, a, b, "")}, Parents: []parentProfile{{b, []byte{9, 9, 9}}}},
		"parent-no-task-names": {Round: 8, RoundSize: 3, GenAware: true,
			Tasks: []candidate{cand(0, a, b, "")}, Parents: []parentProfile{{c, profile}}},
		"more-parents-than-twice-the-tasks": {Round: 8, RoundSize: 3, GenAware: true,
			Tasks: []candidate{cand(0, a, b, c)}, Parents: []parentProfile{{b, profile}, {c, profile}, {b, profile}}},
		"parents-without-genaware": {Round: 8, RoundSize: 3,
			Tasks: []candidate{cand(0, a, b, "")}, Parents: []parentProfile{{b, profile}}},
		"profile-one-byte-past-the-bound": {Round: 8, RoundSize: 3, GenAware: true,
			Tasks: []candidate{cand(0, a, b, "")}, Parents: []parentProfile{{b, make([]byte, maxProfileBytes+1)}}},
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
// maxTaskMsgBytes, then chunkSeqs and shippedParents — and checks what
// the bounds promise: no panic, no more bytes taken than the budget,
// memory bounded by the bytes taken (gob reads a message in chunks of at
// most 10 MiB whatever length its prefix claims, and the in-memory form
// of an empty candidate is 88 bytes for one on the wire, so neither the
// constant nor the factor is small), from an accepted chunk no more
// sequences or hint keys than its RoundSize allows, none longer than the
// residue bound, and no more shipped parents than two a task, each named
// by a task, on a generation-aware chunk only, with a profile that is
// well-formed for the engine and the parent's own length.
func FuzzTaskMsgThroughBudgetReader(f *testing.F) {
	_, eng := setupEngine(f)
	ix := eng.Index()
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
		parents := shippedParents(msg, ix)
		checkAlloc(taken)
		if len(parents) > 2*len(seqs) || (len(parents) > 0 && !msg.GenAware) {
			t.Fatalf("%d shipped parents for %d sequences (generation-aware: %v)", len(parents), len(seqs), msg.GenAware)
		}
		named := map[string]bool{}
		for _, c := range msg.Tasks {
			named[c.Parent], named[c.ParentB] = true, true
		}
		for _, p := range parents {
			nw := p.Seq.NumWindows(ix.Config().Window)
			if !named[p.Seq.Residues()] || p.Seq.Len() > maxResidues {
				t.Fatalf("shipped parent of %d residues, named by a task: %v", p.Seq.Len(), named[p.Seq.Residues()])
			}
			for r, id := range p.Prof.IDs {
				pos, _ := p.Prof.Row(r)
				if int(id) >= ix.NumProteins() || len(pos) == 0 || int(pos[len(pos)-1]) >= nw {
					t.Fatalf("shipped profile row %d: protein %d of %d, positions %v of %d windows", r, id, ix.NumProteins(), pos, nw)
				}
			}
		}
	})
}

// FuzzRequestMsgThroughCheckResults is the master's side: arbitrary bytes
// through a gob decoder behind a budgetReader armed as handle arms it for
// a connection whose largest chunk was maxLeased tasks, then
// checkResults. No panic, no more bytes taken than the budget, memory
// bounded by the bytes taken, and from an accepted request no more
// results than were leased, each with the round's score count and a
// profile within maxProfileBytes.
func FuzzRequestMsgThroughCheckResults(f *testing.F) {
	const maxLeased, nonTargets = 4, 2
	res := func(i int, profile []byte) result {
		return result{Index: i, Attempt: 1, Target: 0.25, NonTarget: []float64{0.5, 0.125}, Profile: profile}
	}
	for _, req := range fuzzSeedRequests(res) {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(req); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{0xf8, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	m := &Master{setup: Setup{NonTargetIDs: make([]int, nonTargets)}}
	budget := msgBudgetBase + maxLeased*resultBudget(nonTargets)
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		in := &budgetReader{r: src, left: budget}
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		start := mem.TotalAlloc
		var req requestMsg
		err := gob.NewDecoder(in).Decode(&req)
		taken := int64(len(data) - src.Len())
		if taken > budget || in.left != budget-taken {
			t.Fatalf("decoder took %d bytes on a budget of %d (%d left)", taken, budget, in.left)
		}
		runtime.ReadMemStats(&mem)
		if grew := int64(mem.TotalAlloc - start); grew > 16<<20+256*taken {
			t.Fatalf("%d bytes allocated for a message of %d", grew, taken)
		}
		if err != nil || m.checkResults(req, maxLeased) != nil {
			return
		}
		if len(req.Results) > maxLeased {
			t.Fatalf("%d results accepted on a connection leased %d at most", len(req.Results), maxLeased)
		}
		for _, r := range req.Results {
			if len(r.NonTarget) != nonTargets || len(r.Profile) > maxProfileBytes {
				t.Fatalf("accepted a result with %d non-target scores and a %d-byte profile", len(r.NonTarget), len(r.Profile))
			}
		}
	})
}

// fuzzSeedRequests are the result messages, honest and impossible, that
// seed FuzzRequestMsgThroughCheckResults.
func fuzzSeedRequests(res func(i int, profile []byte) result) map[string]requestMsg {
	profile := simindex.FlatProfile{IDs: []int32{2}, Offsets: []int32{0, 2}, Pos: []int32{0, 20}, Score: []int32{40, 36}}.AppendWire(nil)
	wrongScores := res(0, nil)
	wrongScores.NonTarget = []float64{0.5}
	return map[string]requestMsg{
		"first-request":        {},
		"heartbeat":            {Heartbeat: true},
		"leaving-with-results": {Leaving: true, Results: []result{res(0, nil)}},
		"results-with-profiles": {Results: []result{res(0, profile), res(3, profile)},
			Cache: cacheCounters{WindowHits: 3, WindowMisses: 40, DeltaQueries: 2, DeltaReusedWindows: 150}},
		"garbled-profile":                 {Results: []result{res(1, []byte{9, 9, 9})}},
		"more-results-than-leased":        {Results: []result{res(0, nil), res(1, nil), res(2, nil), res(3, nil), res(4, nil)}},
		"wrong-score-count":               {Results: []result{wrongScores}},
		"profile-one-byte-past-the-bound": {Results: []result{res(0, make([]byte, maxProfileBytes+1))}},
		"four-profiles-at-the-bound": {Results: []result{res(0, make([]byte, maxProfileBytes)), res(1, make([]byte, maxProfileBytes)),
			res(2, make([]byte, maxProfileBytes)), res(3, make([]byte, maxProfileBytes))}},
	}
}
