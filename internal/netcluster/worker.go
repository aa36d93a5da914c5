package netcluster

import (
	"context"
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/seq"
	"repro/internal/simindex"
)

// WorkerOptions tunes a worker's protocol and reconnect behavior. The
// zero value gets production defaults; liveness cadence additionally
// defers to whatever the master stamps into the broadcast Setup, so a
// fleet follows its master's tuning without per-worker flags.
type WorkerOptions struct {
	// HeartbeatInterval is how often a computing worker pings the master
	// to keep its lease alive. Zero adopts the master's broadcast
	// cadence (or 5s if that rounds to nothing).
	HeartbeatInterval time.Duration
	// HeartbeatMisses is how many silent intervals the worker tolerates
	// while waiting for work before declaring the master dead. Zero
	// adopts the master's broadcast value (or 3).
	HeartbeatMisses int
	// WriteTimeout bounds every protocol write. Default 10s.
	WriteTimeout time.Duration
	// SetupTimeout bounds the initial database broadcast. Default 2m.
	SetupTimeout time.Duration
	// ReconnectMin/ReconnectMax bound RunWorkerLoop's jittered
	// exponential backoff. Defaults 100ms and 10s.
	ReconnectMin time.Duration
	ReconnectMax time.Duration
	// Dial opens the master connection; tests inject fault-injected
	// conns (faultnet.Dialer) here. Default: TCP with a 10s timeout.
	Dial func(addr string) (net.Conn, error)
	// Drain, when it becomes receivable (closed or sent to), asks the
	// worker to leave gracefully: it finishes the chunk it is computing,
	// delivers those results tagged requestMsg.Leaving, and exits without
	// burning any task attempt. RunWorkerLoop returns instead of
	// reconnecting after a drain. Nil (the default) disables draining.
	Drain <-chan struct{}
	// Logf, if non-nil, receives reconnect/backoff diagnostics.
	Logf func(format string, args ...any)
	// Logger, if non-nil, receives the same diagnostics as structured
	// records. When Logf is nil, Logf is derived from Logger, so either
	// sink (or both) may be configured.
	Logger *obs.Logger
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.SetupTimeout <= 0 {
		o.SetupTimeout = 2 * time.Minute
	}
	if o.ReconnectMin <= 0 {
		o.ReconnectMin = 100 * time.Millisecond
	}
	if o.ReconnectMax < o.ReconnectMin {
		o.ReconnectMax = 10 * time.Second
		if o.ReconnectMax < o.ReconnectMin {
			o.ReconnectMax = o.ReconnectMin
		}
	}
	if o.Dial == nil {
		o.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 10*time.Second)
		}
	}
	if o.Logf == nil {
		if logger := o.Logger; logger.Enabled() {
			o.Logf = func(format string, args ...any) {
				logger.Info(fmt.Sprintf(format, args...))
			}
		} else {
			o.Logf = func(string, ...any) {}
		}
	}
	return o
}

// draining reports whether a graceful departure has been requested.
func (o WorkerOptions) draining() bool {
	select {
	case <-o.Drain:
		return true
	default:
		return false
	}
}

// cadence resolves the liveness timing for one session: explicit
// options win, then the master's broadcast values, then defaults.
func (o WorkerOptions) cadence(setup Setup) (interval time.Duration, timeout time.Duration) {
	interval = o.HeartbeatInterval
	if interval <= 0 {
		if setup.HeartbeatIntervalMS > 0 {
			interval = time.Duration(setup.HeartbeatIntervalMS) * time.Millisecond
		} else {
			interval = 5 * time.Second
		}
	}
	misses := o.HeartbeatMisses
	if misses <= 0 {
		if setup.HeartbeatMisses > 0 {
			misses = setup.HeartbeatMisses
		} else {
			misses = 3
		}
	}
	return interval, interval * time.Duration(misses)
}

// cachedEngine lets a reconnecting worker skip the engine rebuild when
// the master broadcasts the same database again (same master, or a
// restarted master with identical data). The pool over it lives as
// long, so its window table and retained parent queries survive a
// dropped connection too.
type cachedEngine struct {
	hash   [sha256.Size]byte
	engine *pipe.Engine
	pool   *cluster.Pool
}

func (c *cachedEngine) get(setup Setup) (*pipe.Engine, *cluster.Pool, error) {
	h := setup.fingerprint()
	if c.engine != nil && c.hash == h {
		return c.engine, c.pool, nil
	}
	e, err := setup.BuildEngine()
	if err != nil {
		return nil, nil, err
	}
	// One worker process with the broadcast thread count: Algorithm 2.
	pool, err := cluster.New(e, setup.TargetID, setup.NonTargetIDs,
		cluster.Config{Workers: 1, ThreadsPerWorker: max(setup.ThreadsPerWorker, 1)})
	if err != nil {
		return nil, nil, err
	}
	c.hash, c.engine, c.pool = h, e, pool
	return e, pool, nil
}

// engineCounters snapshots the cache counters a result message reports
// the chunk's share of.
func engineCounters(e *pipe.Engine) cacheCounters {
	wc := e.WindowCacheStats()
	dq, reused := e.DeltaStats()
	return cacheCounters{wc.Hits, wc.Misses, dq, reused}
}

func (a cacheCounters) minus(b cacheCounters) cacheCounters {
	return cacheCounters{a.WindowHits - b.WindowHits, a.WindowMisses - b.WindowMisses,
		a.DeltaQueries - b.DeltaQueries, a.DeltaReusedWindows - b.DeltaReusedWindows}
}

// chunkSeqs validates a leased chunk against what the protocol could
// have produced and parses its candidates, returning them with the
// content-addressed parent hints (primary, second) of this chunk. Every
// kept member is a hint key too: the pool carries a hinted member it
// already retains into the generation, evaluated here or not. Shipped
// parents are checked as far as the envelope goes — how many, how large,
// each named by a task — and left for shippedParents to open.
func chunkSeqs(t taskMsg, maxResidues int) (seqs []seq.Sequence, hints, second map[string]string, err error) {
	if len(t.Tasks) == 0 || len(t.Tasks) > t.RoundSize {
		return nil, nil, nil, fmt.Errorf("chunk of %d tasks in a round of %d", len(t.Tasks), t.RoundSize)
	}
	if len(t.Keep) > t.RoundSize || (len(t.Keep) > 0 && !t.GenAware) {
		return nil, nil, nil, fmt.Errorf("%d kept members in a round of %d (generation-aware: %v)", len(t.Keep), t.RoundSize, t.GenAware)
	}
	if len(t.Parents) > 2*len(t.Tasks) || (len(t.Parents) > 0 && !t.GenAware) {
		return nil, nil, nil, fmt.Errorf("%d shipped parents with %d tasks (generation-aware: %v)", len(t.Parents), len(t.Tasks), t.GenAware)
	}
	seqs = make([]seq.Sequence, len(t.Tasks))
	hints = make(map[string]string, len(t.Tasks)+len(t.Keep))
	second = make(map[string]string)
	for _, member := range t.Keep {
		if len(member) > maxResidues {
			return nil, nil, nil, fmt.Errorf("kept member exceeds the %d-residue bound", maxResidues)
		}
		hints[member] = ""
	}
	for i, c := range t.Tasks {
		if max(len(c.Residues), len(c.Parent), len(c.ParentB), len(c.Name)) > maxResidues {
			return nil, nil, nil, fmt.Errorf("task %d exceeds the %d-residue bound", c.Index, maxResidues)
		}
		s, err := seq.New(c.Name, c.Residues)
		if err != nil {
			return nil, nil, nil, err
		}
		seqs[i] = s
		if c.Parent != "" {
			hints[s.Residues()] = c.Parent
		}
		if c.ParentB != "" {
			second[s.Residues()] = c.ParentB
		}
	}
	if len(t.Parents) > 0 {
		named := make(map[string]struct{}, 2*len(t.Tasks))
		for _, c := range t.Tasks {
			named[c.Parent], named[c.ParentB] = struct{}{}, struct{}{}
		}
		delete(named, "")
		for _, p := range t.Parents {
			if len(p.Profile) > maxProfileBytes {
				return nil, nil, nil, fmt.Errorf("shipped parent carries a %d-byte profile, bound %d", len(p.Profile), maxProfileBytes)
			}
			if _, ok := named[p.Residues]; !ok {
				return nil, nil, nil, errors.New("shipped parent that no task of the chunk names")
			}
		}
	}
	return seqs, hints, second, nil
}

// shippedParents opens the parents a chunk that chunkSeqs accepted
// carries: each profile is parsed against this worker's index and the
// parent's own window count, so what the pool lifts windows from is
// well-formed whatever the bytes were. The bytes are another worker's,
// relayed unread; one that does not parse is left out — its children
// search what they would have lifted — and costs nobody a connection.
func shippedParents(t taskMsg, ix *simindex.Index) []simindex.DeltaParent {
	var parents []simindex.DeltaParent
	for _, p := range t.Parents {
		s, err := seq.New("parent", p.Residues)
		if err != nil {
			continue
		}
		prof, err := simindex.ParseWire(p.Profile, ix.NumProteins(), s.NumWindows(ix.Config().Window))
		if err != nil {
			continue
		}
		parents = append(parents, simindex.DeltaParent{Seq: s, Prof: prof})
	}
	return parents
}

// wireProfile is the profile a result carries for q: its wire form, or
// nothing when that would exceed what the master accepts.
func wireProfile(q *pipe.Query) []byte {
	if q == nil {
		return nil
	}
	prof := q.Profile()
	// A byte per varint is the usual size: IDs, counts, gaps and scores.
	b := prof.AppendWire(make([]byte, 0, 1+2*prof.NumProteins()+2*prof.NumEntries()))
	if len(b) > maxProfileBytes {
		return nil
	}
	return b
}

// RunWorker connects to the master at addr, rebuilds the engine from
// the broadcast Setup, and processes tasks until the END signal. It
// returns the number of tasks processed. One connection, no reconnect;
// long-lived deployments use RunWorkerLoop.
func RunWorker(addr string) (int, error) {
	return RunWorkerConn(context.Background(), addr, WorkerOptions{})
}

// RunWorkerConn is RunWorker with explicit options and cancellation.
func RunWorkerConn(ctx context.Context, addr string, opts WorkerOptions) (int, error) {
	opts = opts.withDefaults()
	conn, err := opts.Dial(addr)
	if err != nil {
		return 0, fmt.Errorf("netcluster: worker: dial %s: %w", addr, err)
	}
	defer conn.Close()
	var cache cachedEngine
	n, _, _, err := runWorkerConn(ctx, conn, opts, &cache)
	return n, err
}

// RunWorkerLoop serves a master indefinitely, reconnecting with
// jittered exponential backoff after dial failures, dropped
// connections, and clean END signals — so a worker can start before
// its master exists and survive master restarts. It returns the total
// number of tasks processed, with ctx.Err() once the context ends, a
// nil error after a graceful drain (WorkerOptions.Drain fired), or
// ErrProtocolVersion from a master no retry can make compatible; those
// are the only ways out.
func RunWorkerLoop(ctx context.Context, addr string, opts WorkerOptions) (int, error) {
	opts = opts.withDefaults()
	var cache cachedEngine
	total := 0
	backoff := opts.ReconnectMin
	for {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		// A drain can also arrive while disconnected — mid-backoff, or
		// with the master gone entirely. Nothing is leased to an
		// unconnected worker, so honoring it immediately is always safe;
		// without this check a drained worker whose master already exited
		// would reconnect forever.
		if opts.draining() {
			opts.Logf("netcluster: worker: drained while disconnected from %s after %d tasks", addr, total)
			return total, nil
		}
		conn, err := opts.Dial(addr)
		if err != nil {
			opts.Logf("netcluster: worker: dial %s: %v (retry in ~%s)", addr, err, backoff)
		} else {
			var n int
			var sawEnd, drained bool
			n, sawEnd, drained, err = runWorkerConn(ctx, conn, opts, &cache)
			conn.Close()
			total += n
			if ctx.Err() != nil {
				return total, ctx.Err()
			}
			if drained {
				opts.Logf("netcluster: worker: drained from %s after %d tasks", addr, n)
				return total, nil
			}
			if errors.Is(err, ErrProtocolVersion) {
				return total, err
			}
			if n > 0 || sawEnd {
				backoff = opts.ReconnectMin // productive session: reset backoff
			}
			switch {
			case sawEnd:
				opts.Logf("netcluster: worker: master at %s ended the run after %d tasks; watching for its return", addr, n)
			case err != nil:
				opts.Logf("netcluster: worker: session at %s dropped after %d tasks: %v (retry in ~%s)", addr, n, err, backoff)
			}
		}
		t := time.NewTimer(jitter(backoff))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return total, ctx.Err()
		case <-opts.Drain:
			t.Stop()
			opts.Logf("netcluster: worker: drained while disconnected from %s after %d tasks", addr, total)
			return total, nil
		}
		backoff *= 2
		if backoff > opts.ReconnectMax {
			backoff = opts.ReconnectMax
		}
	}
}

// jitter spreads a backoff delay over [d/2, d) so a fleet of workers
// restarting together does not stampede the master.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)))
}

// runWorkerConn speaks one connection's worth of the protocol: receive
// the broadcast, build (or reuse) the engine and its pool, then request,
// evaluate and return chunks — streaming lease-keepalive heartbeats
// while computing — until END, a dead connection, ctx cancellation, or a
// graceful drain request (checked only at the protocol's safe points,
// where this worker has started on nothing it holds: before requesting
// work and between idle heartbeats). The master leases one chunk ahead of
// this loop, which shows here only as a read that returns at once.
// processed counts candidates, not chunks.
func runWorkerConn(ctx context.Context, conn net.Conn, opts WorkerOptions, cache *cachedEngine) (processed int, sawEnd, drained bool, err error) {
	// Unblock any pending read/write when the context ends.
	watchdog := make(chan struct{})
	defer close(watchdog)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-watchdog:
		}
	}()

	enc := gob.NewEncoder(conn)
	in := &budgetReader{r: conn, left: math.MaxInt64} // the broadcast is as large as the proteome
	dec := gob.NewDecoder(in)
	var encMu sync.Mutex
	send := func(msg requestMsg) error {
		encMu.Lock()
		defer encMu.Unlock()
		_ = conn.SetWriteDeadline(time.Now().Add(opts.WriteTimeout))
		return enc.Encode(msg)
	}

	_ = conn.SetReadDeadline(time.Now().Add(opts.SetupTimeout))
	var setup Setup
	if err := dec.Decode(&setup); err != nil {
		return 0, false, false, fmt.Errorf("netcluster: worker: receiving setup: %w", err)
	}
	if setup.ProtocolVersion != ProtocolVersion {
		return 0, false, false, fmt.Errorf("%w: master speaks version %d, this worker version %d",
			ErrProtocolVersion, setup.ProtocolVersion, ProtocolVersion)
	}
	engine, pool, err := cache.get(setup)
	if err != nil {
		return 0, false, false, fmt.Errorf("netcluster: worker: rebuilding engine: %w", err)
	}
	hbInterval, hbTimeout := opts.cadence(setup)
	maxResidues := 0
	for _, p := range setup.Proteins {
		maxResidues = max(maxResidues, residueBoundFactor*len(p.Residues))
	}

	req := requestMsg{} // first request carries no results
	for {
		if err := ctx.Err(); err != nil {
			return processed, false, false, err
		}
		if opts.draining() {
			// Nothing we have started is leased to us right now; say
			// goodbye, carrying the previous chunk's results if this request
			// holds them. A chunk the master leased ahead goes back to its
			// queue unspent.
			req.Leaving = true
			_ = send(req)
			return processed, false, true, nil
		}
		if err := send(req); err != nil {
			return processed, false, false, fmt.Errorf("netcluster: worker: sending request: %w", err)
		}
		var t taskMsg
		for {
			// gob leaves fields absent from the stream unchanged, so the
			// scratch message must be reset between decodes.
			t = taskMsg{}
			_ = conn.SetReadDeadline(time.Now().Add(hbTimeout))
			in.left = maxTaskMsgBytes
			if err := dec.Decode(&t); err != nil {
				return processed, false, false, fmt.Errorf("netcluster: worker: receiving task: %w", err)
			}
			if !t.Heartbeat {
				break // a chunk or END
			}
			if opts.draining() {
				// Idle (the master is streaming no-work heartbeats):
				// leave now. If a chunk was leased concurrently with the
				// goodbye, the master requeues it without loss.
				_ = send(requestMsg{Leaving: true})
				return processed, false, true, nil
			}
			// Ack the idle heartbeat. The master reads between its idle
			// heartbeats precisely so a drain can be heard from a worker
			// it owes no task; the ack lets it tell waiting from dead.
			if err := send(requestMsg{Heartbeat: true}); err != nil {
				return processed, false, false, fmt.Errorf("netcluster: worker: acking heartbeat: %w", err)
			}
		}
		if t.End {
			return processed, true, false, nil
		}
		seqs, hints, second, err := chunkSeqs(t, maxResidues)
		if err != nil {
			// Poison chunk: drop the connection so the master burns one
			// attempt of its tasks instead of looping on it here.
			return processed, false, false, fmt.Errorf("netcluster: worker: bad chunk: %w", err)
		}
		evalCtx := ctx
		if t.GenAware {
			evalCtx = cluster.WithRound(cluster.WithSecondParents(cluster.WithParentHints(ctx, hints), second), t.Round)
			evalCtx = cluster.WithShippedParents(evalCtx, shippedParents(t, engine.Index()))
		}
		// Keep the lease alive while computing.
		stopHB := make(chan struct{})
		var hbWG sync.WaitGroup
		hbWG.Add(1)
		go func() {
			defer hbWG.Done()
			tick := time.NewTicker(hbInterval)
			defer tick.Stop()
			for {
				select {
				case <-stopHB:
					return
				case <-tick.C:
					if send(requestMsg{Heartbeat: true}) != nil {
						return // dead conn; the result send will surface it
					}
				}
			}
		}()
		before := engineCounters(engine)
		results := pool.EvaluateAllContext(evalCtx, seqs)
		close(stopHB)
		hbWG.Wait()
		req = requestMsg{Results: make([]result, len(results)), Cache: engineCounters(engine).minus(before)}
		for i, r := range results {
			req.Results[i] = result{Index: t.Tasks[i].Index, Attempt: t.Tasks[i].Attempt,
				Target: r.TargetScore, NonTarget: r.NonTargetScores}
			if t.GenAware {
				req.Results[i].Profile = wireProfile(pool.Retained(seqs[i].Residues()))
			}
		}
		processed += len(results)
	}
}
