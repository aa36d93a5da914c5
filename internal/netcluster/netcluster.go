// Package netcluster is the distributed deployment of the master/worker
// engine (paper Section 2.3) over real sockets: the master listens on a
// TCP address, and each worker process connects, receives the broadcast
// data (protein sequences, interaction edges and PIPE configuration —
// Algorithm 1's broadcast less the similarity database), builds its own
// PIPE engine, and then enters Algorithm 2's work-request loop.
//
// MPI send/receive becomes length-delimited gob messages; the on-demand
// protocol is preserved — a worker sends a request and reads one answer,
// in turn — but its unit is a chunk: a worker's request carries the
// results of its previous chunk of candidates, and the master answers
// with the next chunk — candidates plus the parents each was bred from
// — or the END signal. One work-request round trip
// per candidate is what saturates the paper's master (Figs 5-6); a
// chunk is half an even share of the queue, so a generation costs a
// few messages per worker. The worker evaluates a chunk through the
// same cluster.Pool the in-process path uses, on its own engine:
// window dedup across the chunk, the engine's window table, and delta
// preprocessing from parents the worker itself evaluated last round.
// The master therefore leases by lineage: it remembers which worker a
// sequence was last leased to and offers a child first to the worker
// that holds most of its parents, and it tells each worker which
// unevaluated members of the generation to keep retained. A parent the
// leased worker does not hold travels with the chunk: a result carries
// the candidate's similarity profile in simindex's wire form, the master
// keeps those bytes unopened for the generation's members and their
// parents, and ships each to a worker at most once a round, so a child
// leased away from its parents costs bytes, not window searches. Chunks
// carry the master's round number so a generation that arrives in
// several chunks is still one generation to that pool, and the caller's
// target-first mark, so a worker's pool gates its builds on the target's
// reach set and answers a candidate that scores 0 against the target
// target-only, without scoring its non-targets.
//
// A worker is leased one chunk ahead: the master answers a first request
// with two chunks and each result message with one more, so the next
// chunk is in the worker's socket buffer when it sends its results and
// the worker never waits a round trip inside a round. The worker's loop
// does not know: it sends, reads one chunk, evaluates, and sends again.
//
// Unlike the paper's Blue Gene/Q run — dedicated hardware where a hung
// rank killed the whole job — this package is built for commodity
// clusters where workers hang, crash, restart and join late:
//
//   - every dispatched chunk carries a lease, which ends only with its
//     worker's connection: a worker silent for Options.LeaseTimeout is
//     dropped, and the tasks of a crashed or dropped worker are
//     re-queued to a healthy worker
//     — each then travels in a chunk of its own, so a candidate that
//     kills workers cannot spend its chunk-mates' attempts twice — and
//     a task that burns Options.MaxAttempts dispatches is quarantined
//     and reported as a per-task error instead of hanging or crashing
//     the run; a chunk leased ahead that comes back before its worker
//     could start on it gets its attempt back;
//   - both sides exchange lightweight heartbeats under read/write
//     deadlines, so a silently dead TCP peer (NAT timeout, pulled
//     cable) is detected in bounded time;
//   - RunWorkerLoop reconnects with exponential backoff plus jitter, so
//     workers can start before the master and survive master restarts;
//   - Master.Stats exposes the fault-tolerance counters (re-issues,
//     expired leases, disconnects, quarantines) for /metrics scraping.
package netcluster

import (
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"repro/internal/pipe"
	"repro/internal/ppigraph"
	"repro/internal/seq"
	"repro/internal/simindex"
	"repro/internal/submat"
)

// Protein is the wire form of one proteome sequence.
type Protein struct {
	Name     string
	Residues string
}

// Setup is the broadcast payload: everything a worker needs to rebuild
// the shared read-only state. Substitution matrix and reduced alphabet
// travel by name, since they are code, not data. Unlike the paper's,
// this master ships no similarity database and runs no search: the
// worker's engine fills its window table on first touch, as the
// in-process engine does.
type Setup struct {
	// ProtocolVersion is stamped by NewMasterOptions; a worker built for
	// another version refuses the session (ErrProtocolVersion) instead
	// of mis-decoding what follows.
	ProtocolVersion int

	Proteins []Protein
	Edges    [][2]int32

	Window      int
	SeedLen     int
	Threshold   int
	MatrixName  string
	ReducedName string

	CellSupport  float64
	FilterRadius int
	Unfiltered   bool
	TopFrac      float64
	ScoreScale   float64
	Pseudocount  float64
	MinOcc       int
	MinEvidence  int
	WeightScale  float64
	WeightCap    float64

	TargetID         int
	NonTargetIDs     []int
	ThreadsPerWorker int

	// HeartbeatIntervalMS and HeartbeatMisses carry the master's liveness
	// cadence to workers (stamped by NewMasterOptions), so both ends of a
	// connection agree on what "silent too long" means without separate
	// worker configuration. Zero means a default master's values.
	HeartbeatIntervalMS int64
	HeartbeatMisses     int
}

// NewSetup captures an engine's proteome, graph and configuration plus
// the design problem into a broadcastable Setup.
func NewSetup(e *pipe.Engine, targetID int, nonTargetIDs []int, threadsPerWorker int) Setup {
	g := e.Graph()
	cfg := e.Config()
	s := Setup{
		Window:           cfg.Index.Window,
		SeedLen:          cfg.Index.SeedLen,
		Threshold:        cfg.Index.Threshold,
		MatrixName:       cfg.Index.Matrix.Name(),
		ReducedName:      cfg.Index.Reduced.Name(),
		CellSupport:      cfg.CellSupport,
		FilterRadius:     cfg.FilterRadius,
		Unfiltered:       cfg.Unfiltered,
		TopFrac:          cfg.TopFrac,
		ScoreScale:       cfg.ScoreScale,
		Pseudocount:      cfg.Pseudocount,
		MinOcc:           cfg.MinOcc,
		MinEvidence:      cfg.MinEvidence,
		WeightScale:      cfg.WeightScale,
		WeightCap:        cfg.WeightCap,
		TargetID:         targetID,
		NonTargetIDs:     nonTargetIDs,
		ThreadsPerWorker: threadsPerWorker,
	}
	for i := 0; i < g.NumProteins(); i++ {
		ix := e.Index().Protein(i)
		s.Proteins = append(s.Proteins, Protein{Name: ix.Name(), Residues: ix.Residues()})
	}
	g.Edges(func(a, b int) bool {
		s.Edges = append(s.Edges, [2]int32{int32(a), int32(b)})
		return true
	})
	return s
}

// BuildEngine reconstructs the PIPE engine on the worker side — the
// paper's "worker processes do not load any data from disk" — with pipe.New.
func (s Setup) BuildEngine() (*pipe.Engine, error) {
	matrix, err := submat.ByName(s.MatrixName)
	if err != nil {
		return nil, err
	}
	var reduced *seq.ReducedAlphabet
	switch s.ReducedName {
	case "murphy10":
		reduced = seq.Murphy10()
	case "dayhoff6":
		reduced = seq.Dayhoff6()
	case "identity20":
		reduced = seq.Identity20()
	default:
		return nil, fmt.Errorf("netcluster: unknown reduced alphabet %q", s.ReducedName)
	}
	proteins := make([]seq.Sequence, len(s.Proteins))
	builder := ppigraph.NewBuilder()
	for i, p := range s.Proteins {
		sq, err := seq.New(p.Name, p.Residues)
		if err != nil {
			return nil, err
		}
		proteins[i] = sq
		builder.AddProtein(p.Name)
	}
	for _, e := range s.Edges {
		builder.AddEdgeID(int(e[0]), int(e[1]))
	}
	cfg := pipe.Config{
		Index: simindex.Config{
			Window:    s.Window,
			SeedLen:   s.SeedLen,
			Threshold: s.Threshold,
			Matrix:    matrix,
			Reduced:   reduced,
		},
		CellSupport:  s.CellSupport,
		FilterRadius: s.FilterRadius,
		Unfiltered:   s.Unfiltered,
		TopFrac:      s.TopFrac,
		ScoreScale:   s.ScoreScale,
		Pseudocount:  s.Pseudocount,
		MinOcc:       s.MinOcc,
		MinEvidence:  s.MinEvidence,
		WeightScale:  s.WeightScale,
		WeightCap:    s.WeightCap,
	}
	return pipe.New(proteins, builder.Build(), cfg, 0)
}

// fingerprint hashes the engine-defining fields of the setup so a
// reconnecting worker can reuse its engine when the master (or a
// restarted master) broadcasts the same proteome and problem again.
func (s Setup) fingerprint() [sha256.Size]byte {
	// Liveness cadence does not change the engine.
	s.HeartbeatIntervalMS = 0
	s.HeartbeatMisses = 0
	h := sha256.New()
	enc := gob.NewEncoder(h)
	_ = enc.Encode(s)
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// Wire protocol -------------------------------------------------------
//
// After the Setup broadcast, the worker sends requestMsg and reads one
// taskMsg, in turn. The master runs one chunk ahead of that: it answers
// the first request with two chunks when it has them and every later
// one with at most one, and sends nothing when the worker still holds a
// chunk and there is no more work. Heartbeat messages stand outside the
// turn-taking: a computing worker streams heartbeat requests so the
// master never finds it silent, and a master with no work streams
// heartbeat tasks so an idle worker can tell "no work yet" from "dead
// master". Receivers skip heartbeats and keep waiting for the real
// message; every received message refreshes the peer's liveness
// deadline.

// ProtocolVersion identifies this wire format: chunked leases with
// both parents as hints, the members a worker keeps retained, round
// numbers, per-chunk cache counters, similarity profiles travelling up
// with results and down with the chunks that need them, and the
// target-first mark on chunks with target-only results coming back.
const ProtocolVersion = 6

// ErrProtocolVersion is returned by a worker whose master speaks
// another ProtocolVersion. Retrying cannot help, so RunWorkerLoop
// returns it instead of reconnecting.
var ErrProtocolVersion = errors.New("netcluster: protocol version mismatch")

// candidate is one leased task on the wire.
type candidate struct {
	Index    int
	Attempt  int
	Name     string
	Residues string
	// Parent is the residue content of the candidate's primary parent in
	// the previous round, or "" when the round has no hint for it.
	Parent string
	// ParentB is the residue content of the parent a crossover child's
	// tail came from, or "" for a candidate bred from one parent.
	ParentB string
}

// parentProfile is a parent shipped with a chunk: its residues and its
// similarity profile in simindex's wire form, as the worker that
// evaluated it returned it. The master never decodes the profile; the
// receiving worker parses it against its own engine before use. Partial
// marks the profile of a target-only result: cut to the target's reach
// set (simindex.DeltaParent.Partial), it serves only a target-first
// build.
type parentProfile struct {
	Residues string
	Profile  []byte
	Partial  bool
}

type taskMsg struct {
	Heartbeat bool // liveness only; no task attached
	End       bool
	// Round numbers the master's evaluation rounds; chunks of one round
	// are one generation to the worker's pool. RoundSize, the round's
	// candidate count, bounds any chunk of it. GenAware says the caller
	// attached parent hints (possibly none for these tasks), so the
	// worker retains its queries as next round's delta parents.
	Round     int64
	RoundSize int
	GenAware  bool
	// TargetFirst carries the caller's cluster.WithTargetFirst mark: the
	// worker's pool then answers a candidate that scores exactly 0
	// against the target target-only, and gates its builds on the
	// target's reach set.
	TargetFirst bool
	Tasks       []candidate
	// Keep is the residues of generation members this round does not
	// evaluate — the caller's cache answered them — whose queries this
	// worker retains: they stay retained, as next round's delta parents.
	// Only a GenAware chunk carries it, and only the first one a worker is
	// leased in a round; it holds at most RoundSize entries.
	Keep []string
	// Parents holds the profiles of parents the chunk's tasks name and
	// this worker does not retain — each at most once per worker and
	// round, so a later chunk's tasks may name a parent an earlier chunk
	// shipped. Only a GenAware chunk carries any: at most two per task,
	// each named by a task of this chunk, none above maxProfileBytes,
	// and at most maxChunkParentBytes of them in all.
	Parents []parentProfile
}

// result is one evaluated task on the wire.
type result struct {
	Index     int
	Attempt   int
	Target    float64
	NonTarget []float64
	// TargetOnly answers a target-first chunk for a candidate whose
	// target score is exactly 0 (cluster.Result.TargetOnly): Target is 0
	// and NonTarget empty.
	TargetOnly bool
	// Profile is the candidate's similarity profile in simindex's wire
	// form, sent on generation-aware rounds so the master can ship it
	// with the candidate's children; a target-only result's is the
	// partial profile its pool cut to the target's reach set. Empty when
	// the round is not generation-aware, the form would exceed
	// maxProfileBytes, or the result is target-only and the pool built
	// the candidate's query in full; the children then search what they
	// cannot lift.
	Profile []byte
}

// cacheCounters is what evaluating one chunk added to the worker
// engine's window-table and delta-preprocessing counters. Older builds
// also sent WindowEvicted; gob drops the field, so the protocol version
// did not change.
type cacheCounters struct {
	WindowHits, WindowMisses         int64
	DeltaQueries, DeltaReusedWindows int64
}

type requestMsg struct {
	Heartbeat bool // liveness only; no result, no work request
	// Leaving announces a graceful drain: the worker delivers the
	// attached results (if any) and disconnects instead of requesting
	// more work.
	Leaving bool
	// Results answers the oldest chunk this worker was sent and has not
	// answered, whole; empty on a first request. Chunks are answered in
	// the order they were sent.
	Results []result
	Cache   cacheCounters
}

// Bounds on what a peer may send. A garbled or hostile peer costs its
// connection, never an unbounded allocation: every message is read
// under a byte budget, and counts and lengths are checked against what
// the protocol could have produced before anything is built from them.
const (
	// msgBudgetBase covers a message's fixed part, gob's one-off type
	// descriptors and the decoder's read-ahead.
	msgBudgetBase = 16 << 10
	// maxSetupMsgBytes bounds the setup broadcast on the worker side:
	// about 5 times a 6 731-protein Setup (3.3 MB: proteome and edges).
	// gob allocates a few times what it reads of a long message, so the
	// budget is also what a garbled master can make a worker allocate.
	maxSetupMsgBytes = 16 << 20
	// maxTaskMsgBytes bounds one chunk on the worker side, which cannot
	// know the round size before decoding. Half of it is for the parent
	// profiles a chunk ships (maxChunkParentBytes, which the master keeps
	// to); the other half holds a 1000-candidate round of 150 residues
	// four times over (tasks, both parents' residues, kept members)
	// about seven times.
	maxTaskMsgBytes = 8 << 20
	// maxChunkParentBytes bounds the parent profiles one chunk ships. A
	// generation-0 candidate spliced from natural fragments has a profile
	// of about 12 KB at 6 731 proteins (median; a tenth exceed 46 KB),
	// about 600 B at 224, so this ships some 350 parents a chunk at full
	// scale; a task whose parent misses the cut searches what it would
	// have lifted.
	maxChunkParentBytes = maxTaskMsgBytes / 2
	// residueBoundFactor x the longest proteome protein bounds a
	// candidate's (and each parent's and its name's) length.
	residueBoundFactor = 4
	// maxProfileBytes bounds one similarity profile on the wire, in a
	// result and in a chunk, and is what the master adds to its read
	// budget per result: about a hundred times a 130-residue generation-0
	// candidate's at 224 proteins and five times one's at 6 731 (medians;
	// the largest there exceed it and are not sent).
	maxProfileBytes = 64 << 10
)

var errMessageTooLarge = errors.New("netcluster: message exceeds its size budget")

// budgetReader fails the read that would take the current message past
// left, which its owner resets before every Decode.
type budgetReader struct {
	r    io.Reader
	left int64
}

func (b *budgetReader) Read(p []byte) (int, error) {
	if b.left <= 0 {
		return 0, errMessageTooLarge
	}
	if int64(len(p)) > b.left {
		p = p[:b.left]
	}
	n, err := b.r.Read(p)
	b.left -= int64(n)
	return n, err
}
