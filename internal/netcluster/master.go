package netcluster

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/seq"
)

// Errors reported by the master.
var (
	// ErrMasterClosed is returned by evaluation calls racing Close.
	ErrMasterClosed = errors.New("netcluster: master closed")
	// ErrBusy is returned when EvaluateAllContext is called while another
	// round is still in flight; rounds share the worker fleet and must be
	// issued one at a time.
	ErrBusy = errors.New("netcluster: an evaluation round is already in flight")
	// ErrTaskAbandoned marks a per-task Result.Err after MaxAttempts
	// dispatches all failed (the worker crashed or went silent each time).
	ErrTaskAbandoned = errors.New("netcluster: task abandoned after max attempts")
)

// DefaultLeaseTimeout is Options.LeaseTimeout's default, and insips'
// -lease default.
const DefaultLeaseTimeout = 15 * time.Second

// writeTimeout bounds every protocol write, and setupTimeout the setup
// broadcast and the worker's engine rebuild that follows it (both scale
// with proteome size), on both ends of a connection.
const writeTimeout, setupTimeout = 10 * time.Second, 2 * time.Minute

// Options tunes the master's fault-tolerance machinery. The zero value
// gets production defaults; tests shrink the intervals.
type Options struct {
	// LeaseTimeout is the one silence bound: how long a worker may send
	// nothing — no heartbeat, no result — before the master drops it, and
	// its leases end with its connection. A computing worker heartbeats,
	// so a slow but live one keeps its chunk however long it takes.
	// Default DefaultLeaseTimeout.
	LeaseTimeout time.Duration
	// MaxAttempts is how many dispatches a task gets before it is
	// quarantined: reported as Result.Err (wrapping ErrTaskAbandoned)
	// instead of burning the fleet forever. Default 3.
	MaxAttempts int
	// HeartbeatInterval is the liveness cadence, broadcast to workers in
	// the Setup: a computing worker heartbeats this often, and an idle
	// one is sent a heartbeat this often. Default LeaseTimeout/3 clamped
	// to [10ms, 5s]; never more than LeaseTimeout/2, so at least two
	// beats fit inside the silence bound.
	HeartbeatInterval time.Duration
	// MinLiveWorkers gates dispatch during churn: while fewer than this
	// many workers are connected, tasks stay queued (no leases granted,
	// no attempts burned) and connected workers receive heartbeats, so a
	// briefly depopulated fleet cannot quarantine a round's tasks by
	// failing them serially. 0 (the default) disables the gate.
	MinLiveWorkers int
	// Logger, if non-nil, receives structured events for worker
	// connections, lease expiries, task quarantines and evaluation
	// rounds. Nil discards them.
	Logger *obs.Logger
	// Metrics, if non-nil, records the obs.StageDispatch (queue wait) and
	// obs.StageCollect (lease-to-result, the chunk's divided by its size)
	// histograms per task.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = DefaultLeaseTimeout
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.HeartbeatInterval <= 0 {
		// A third of the lease, rounded up so that three beats cover it.
		o.HeartbeatInterval = min(max((o.LeaseTimeout+2)/3, 10*time.Millisecond), 5*time.Second)
	}
	o.HeartbeatInterval = min(o.HeartbeatInterval, o.LeaseTimeout/2)
	return o
}

// heartbeatMisses is how many heartbeat intervals cover the silence
// bound, rounded up: how many unanswered idle heartbeats the master
// tolerates, and what the Setup tells workers to tolerate of the master.
func (o Options) heartbeatMisses() int {
	return int((o.LeaseTimeout + o.HeartbeatInterval - 1) / o.HeartbeatInterval)
}

// task is one candidate evaluation, tracked across re-issues. Tasks are
// leased in chunks but tracked, retried and quarantined one by one.
type task struct {
	index    int
	attempts int       // dispatches so far, less those handed back unstarted
	enqueued time.Time // when the task (re)entered the queue

	// Lineage, fixed before the task is queued: the primary and second
	// parent its lease names ("" for none), the live worker whose pool
	// retains that parent's query (nil when none does; round.plan), and
	// the parent's profile as some worker returned it (no Profile when
	// the master holds none; round.parentProfiles).
	parents  [2]string
	homes    [2]*workerConn
	profiles [2]parentProfile
	// worker is who the task was last leased to; a completed round folds
	// it into Master.home.
	worker *workerConn
}

// loss is what leasing t to w gives up, in parents: those whose query
// another live worker retains minus those w retains. A task nobody holds
// a parent of costs nothing to anyone, like one with a parent on each
// side.
func (t *task) loss(w *workerConn) int {
	n := 0
	for _, h := range t.homes {
		switch h {
		case nil:
		case w:
			n--
		default:
			n++
		}
	}
	return n
}

// round is the state of one EvaluateAllContext call. A task object
// lives in exactly one place at a time — the queue, a worker's
// inflight chunk, or done — which is what makes re-issue race-free.
type round struct {
	id        int64 // the master's round number, sent with every chunk
	seqs      []seq.Sequence
	genAware  bool    // hints were attached, even if empty
	tasks     []*task // every task of the round, indexed like seqs
	queue     []*task
	done      []bool
	remaining int
	results   []cluster.Result
	cancelled bool
	finished  chan struct{} // closed when remaining hits zero
	// targetFirst carries the caller's cluster.WithTargetFirst mark to
	// every chunk; only its results may be target-only.
	targetFirst bool
	// keep lists, per worker, the generation members this round does not
	// evaluate (the caller's cache answered them) whose query that worker
	// retains; the worker's first chunk of the round carries its list.
	keep map[*workerConn][]string
	// profiles holds, per task of a generation-aware round, the profile
	// its result carried; shipped, per worker, the parents whose profile
	// a chunk of this round has already taken there.
	profiles []parentProfile
	shipped  map[*workerConn]map[string]struct{}
}

// plan builds the round's tasks with their lineage and its keep lists
// from the caller's hints and from home, where each sequence was last
// leased. It returns home pruned to what this round or the next can ask
// about — the generation's members, their parents, live workers — so
// the map never outgrows twice the population. It hashes every member
// and parent of the generation several times over and runs before the
// round is queued, without Master.mu.
func (r *round) plan(hints, second map[string]string, home map[string]*workerConn, live map[*workerConn]struct{}) map[string]*workerConn {
	pruned := make(map[string]*workerConn, 2*len(hints))
	retain := func(residues string) *workerConn {
		h, ok := home[residues]
		if _, up := live[h]; !ok || !up {
			return nil
		}
		pruned[residues] = h
		return h
	}
	now := time.Now()
	evaluated := make(map[string]struct{}, len(r.seqs))
	r.tasks = make([]*task, len(r.seqs))
	for i, s := range r.seqs {
		child := s.Residues()
		evaluated[child] = struct{}{}
		t := &task{index: i, enqueued: now, parents: [2]string{hints[child], second[child]}}
		for k, parent := range t.parents {
			if parent != "" {
				t.homes[k] = retain(parent)
			}
		}
		r.tasks[i] = t
	}
	var survivors []string // members the round does not evaluate, in a fixed order
	for member, parent := range hints {
		retain(parent)
		retain(member)
		if _, queued := evaluated[member]; !queued {
			survivors = append(survivors, member)
		}
	}
	for _, parent := range second {
		retain(parent)
	}
	sort.Strings(survivors)
	r.keep = make(map[*workerConn][]string)
	for _, member := range survivors {
		h := pruned[member]
		switch {
		case h == nil:
		case len(r.keep[h]) < len(r.seqs):
			r.keep[h] = append(r.keep[h], member)
		default:
			// A worker bounds Keep by the round's size, as it bounds a chunk;
			// what does not fit it drops after this round, so it has no home.
			delete(pruned, member)
		}
	}
	return pruned
}

// parentProfiles gives each planned task the wire profiles the master
// holds of its parents, and returns store pruned to what this round can
// ship or the next can ask for — the generation's members and their
// parents — so it never outgrows twice the population. Like plan it runs
// before the round is queued, without Master.mu.
func (r *round) parentProfiles(hints, second map[string]string, store map[string]parentProfile) map[string]parentProfile {
	pruned := make(map[string]parentProfile, 2*len(hints))
	retain := func(residues string) {
		if p, ok := store[residues]; ok {
			pruned[residues] = p
		}
	}
	for member, parent := range hints {
		retain(member)
		retain(parent)
	}
	for _, parent := range second {
		retain(parent)
	}
	for _, t := range r.tasks {
		for k, parent := range t.parents {
			t.profiles[k] = pruned[parent]
		}
	}
	return pruned
}

// pickLocked removes and returns the n tasks w should be leased next:
// the re-issued task at the head alone, else the fresh tasks of least
// loss to w, ties in queue order — its own first, then nobody's, then
// other workers', the steal that keeps the tail balanced. A round
// without hints is all nobody's and leases in queue order. Re-issued
// tasks deeper in the queue stay where they are until they reach the
// head. Caller holds Master.mu; n is chunkSize's.
func (r *round) pickLocked(w *workerConn, n int) []*task {
	if r.queue[0].attempts > 0 {
		chunk := []*task{r.queue[0]}
		r.queue = r.queue[1:]
		return chunk
	}
	losses := make([]int, len(r.queue))
	fresh := make([]int, 0, len(r.queue))
	for i, t := range r.queue {
		if t.attempts == 0 {
			losses[i] = t.loss(w)
			fresh = append(fresh, i)
		}
	}
	sort.SliceStable(fresh, func(a, b int) bool { return losses[fresh[a]] < losses[fresh[b]] })
	chunk := make([]*task, n)
	picked := make([]bool, len(r.queue))
	for k, i := range fresh[:n] {
		chunk[k] = r.queue[i]
		picked[i] = true
	}
	rest := r.queue[:0]
	for i, t := range r.queue {
		if !picked[i] {
			rest = append(rest, t)
		}
	}
	r.queue = rest
	return chunk
}

// completeLocked records the final result of one task. Caller holds
// Master.mu.
func (r *round) completeLocked(res cluster.Result) {
	r.done[res.Index] = true
	r.results[res.Index] = res
	r.remaining--
	if r.remaining == 0 {
		close(r.finished)
	}
}

// lease is one chunk a worker was sent and has not answered.
type lease struct {
	tasks []*task
	round *round
	// started is when the worker could turn to the chunk: when it was
	// sent, or when the chunk in front of it was answered.
	started time.Time
}

// maxLeases is how many chunks a worker holds at most: the one it is
// evaluating and one leased ahead, already in its socket buffer when it
// sends the first one's results.
const maxLeases = 2

// workerConn is the master-side record of one connected worker. leases
// is guarded by Master.mu.
type workerConn struct {
	conn net.Conn
	// leases are the chunks sent and not answered, oldest first; the
	// worker answers them in that order. Only the connection's handler
	// adds and removes entries, and they are taken back only when the
	// connection ends, so the count is always how many chunk messages the
	// worker has yet to answer.
	leases []lease
}

// Master owns the listener and distributes candidate evaluations to
// connected workers under task leases. Create with NewMaster or
// NewMasterOptions, then call EvaluateAll/EvaluateAllContext any number
// of times (one at a time) and Close when done.
type Master struct {
	setup Setup
	ln    net.Listener
	opts  Options

	stats statsCounters

	mu     sync.Mutex
	closed bool
	conns  map[*workerConn]struct{}
	cur    *round
	wake   chan struct{} // closed and replaced to broadcast state changes

	// home maps residues to the worker a sequence was last leased to,
	// whose pool therefore retains its query while it stays a generation
	// member or a parent of one; profiles maps residues to the sequence's
	// profile as the worker that evaluated it returned it, its wire form
	// opaque here. Both belong to whoever holds the round slot (cur):
	// EvaluateAllContext prunes them once it has claimed the slot and
	// folds the round's leases and results in before giving the slot up,
	// so they are never touched under mu and need no lock of their own.
	home     map[string]*workerConn
	profiles map[string]parentProfile

	closedCh chan struct{}
	wg       sync.WaitGroup
}

// NewMaster starts serving on ln (which the caller created, e.g. via
// net.Listen("tcp", "127.0.0.1:0")) with default Options.
func NewMaster(setup Setup, ln net.Listener) *Master {
	return NewMasterOptions(setup, ln, Options{})
}

// NewMasterOptions is NewMaster with explicit fault-tolerance tuning.
// The accept loop runs until Close.
func NewMasterOptions(setup Setup, ln net.Listener, opts Options) *Master {
	opts = opts.withDefaults()
	setup.ProtocolVersion = ProtocolVersion
	setup.HeartbeatIntervalMS = opts.HeartbeatInterval.Milliseconds()
	setup.HeartbeatMisses = opts.heartbeatMisses()
	m := &Master{
		setup:    setup,
		ln:       ln,
		opts:     opts,
		conns:    make(map[*workerConn]struct{}),
		wake:     make(chan struct{}),
		closedCh: make(chan struct{}),
	}
	m.wg.Add(1)
	go m.acceptLoop()
	return m
}

// Addr returns the master's listen address for workers to dial.
func (m *Master) Addr() string { return m.ln.Addr().String() }

// Workers returns the number of currently connected workers.
func (m *Master) Workers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.conns)
}

// wakeLocked broadcasts a dispatch-state change to every handler
// blocked waiting for work. Caller holds m.mu.
func (m *Master) wakeLocked() {
	close(m.wake)
	m.wake = make(chan struct{})
}

func (m *Master) acceptLoop() {
	defer m.wg.Done()
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return // listener closed
		}
		m.wg.Add(1)
		go m.handle(conn)
	}
}

// revokeLocked takes back everything w holds as its connection ends.
// The oldest chunk is the one the worker may have started — it has,
// unless it said goodbye instead — so its tasks have spent an attempt; a
// chunk behind it was never looked at and goes back as it came. Caller
// holds m.mu.
func (m *Master) revokeLocked(w *workerConn, startedOldest bool) {
	for i, l := range w.leases {
		m.requeueLocked(l.round, l.tasks, i > 0 || !startedOldest)
	}
	w.leases = nil
}

// requeueLocked returns tasks to the dispatch queue. Tasks whose attempt
// failed (a worker that died or went silent, or a result message that
// skipped them) are re-issues, and each one whose attempt budget is
// spent is quarantined instead. Tasks that come back unstarted get their
// attempt back and are queued as what they were before the lease. Caller
// holds m.mu.
func (m *Master) requeueLocked(r *round, tasks []*task, unstarted bool) {
	if r.cancelled || len(tasks) == 0 {
		return
	}
	for _, t := range tasks {
		switch {
		case unstarted:
			t.attempts--
		case t.attempts >= m.opts.MaxAttempts:
			m.stats.tasksQuarantined.Add(1) // counted before the round can finish on it
			r.completeLocked(cluster.Result{
				Index:    t.index,
				Attempts: t.attempts,
				Err:      fmt.Errorf("%w (task %d, %d attempts)", ErrTaskAbandoned, t.index, t.attempts),
			})
			m.opts.Logger.Warn("task quarantined", "task", t.index, "attempts", t.attempts)
			continue
		default:
			m.stats.tasksReissued.Add(1)
		}
		t.enqueued = time.Now() // back in the queue, the dispatch-wait clock restarts
		r.queue = append(r.queue, t)
	}
	m.wakeLocked()
}

// deliver records the results a worker returned for the oldest chunk it
// holds and removes that lease; the worker turns to the chunk leased
// ahead, if any, whose clock starts now. Results for a cancelled round
// or for no lease are counted and dropped, the cache counters sent with
// them included. A leased task the message has no result for goes back
// to the queue, one attempt spent. What the chunk adds to Stats is
// published before its tasks complete: completing the last one releases
// the caller of EvaluateAllContext, who snapshots Stats straight away.
func (m *Master) deliver(w *workerConn, req requestMsg) {
	byIndex := make(map[int]*result, len(req.Results))
	for i := range req.Results {
		byIndex[req.Results[i].Index] = &req.Results[i]
	}
	now := time.Now()
	m.mu.Lock()
	var answered lease
	if len(w.leases) > 0 {
		answered = w.leases[0]
		w.leases = append(w.leases[:0], w.leases[1:]...)
	}
	if len(w.leases) > 0 {
		w.leases[0].started = now
	}
	chunk, r := answered.tasks, answered.round
	if len(chunk) == 0 || r.cancelled {
		m.mu.Unlock()
		m.stats.resultsDropped.Add(int64(len(req.Results)))
		return
	}
	var missing, landed []*task
	for _, t := range chunk {
		if byIndex[t.index] == nil {
			missing = append(missing, t)
		} else {
			landed = append(landed, t)
		}
	}
	// Per-candidate service time: the chunk's lease-to-result time
	// divided over its tasks, so the figures keep their meaning whatever
	// the chunk size.
	service := now.Sub(answered.started) / time.Duration(len(chunk))
	if len(landed) > 0 {
		m.stats.tasksCompleted.Add(int64(len(landed)))
		m.stats.addCache(req.Cache)
		m.stats.observeService(service)
	}
	for _, t := range landed {
		res := byIndex[t.index]
		if r.genAware {
			// A target-only result's profile is its partial one.
			r.profiles[t.index] = parentProfile{Residues: r.seqs[t.index].Residues(), Profile: res.Profile, Partial: res.TargetOnly}
		}
		r.completeLocked(cluster.Result{
			Index:           t.index,
			TargetScore:     res.Target,
			NonTargetScores: res.NonTarget,
			TargetOnly:      res.TargetOnly,
			Attempts:        t.attempts,
		})
	}
	m.requeueLocked(r, missing, false)
	m.mu.Unlock()
	m.stats.resultsDropped.Add(int64(len(req.Results) - len(landed)))
	for range landed {
		m.opts.Metrics.Observe(obs.StageCollect, service)
	}
}

// release unregisters a worker and re-queues what it holds, if anything:
// a worker's leases end with its connection. silent says the worker sent
// nothing for LeaseTimeout; if it held chunks of a master not closing,
// that is a lease expiry, counted before its tasks can finish a round.
func (m *Master) release(w *workerConn, silent bool) {
	m.mu.Lock()
	delete(m.conns, w)
	expired := silent && len(w.leases) > 0 && !m.closed
	if expired {
		m.stats.leasesExpired.Add(1)
	}
	m.revokeLocked(w, true)
	m.mu.Unlock()
	if expired {
		m.opts.Logger.Warn("lease expired", "worker", w.conn.RemoteAddr().String())
	}
	m.stats.workerDisconnects.Add(1)
	m.opts.Logger.Debug("worker disconnected", "worker", w.conn.RemoteAddr().String())
}

// Dispatch outcomes of nextTask.
const (
	actTask = iota
	actHeartbeat
	actEnd
	actNone // nothing to send: the worker holds a chunk and gets no more for now
)

// chunkSize is how many tasks go out in one lease: guided
// self-scheduling, half an even share of what is left, so chunks shrink
// as the round drains and late joiners and stragglers still balance on
// the small tail. Which tasks they are is round.pickLocked's business.
// A re-issued task travels alone — it may be the one that killed its
// last worker, and chunk-mates would pay an attempt each time it does so
// again — and a fresh chunk is no larger than the run of fresh tasks at
// the head of the queue.
func chunkSize(queue []*task, workers int) int {
	if queue[0].attempts > 0 {
		return 1
	}
	n := (len(queue) + 2*workers - 1) / (2 * workers)
	for i := 1; i < n; i++ {
		if queue[i].attempts > 0 {
			return i
		}
	}
	return n
}

// nextTask leases w a chunk of tasks, returning the wire message to
// send. It blocks for work only while w holds nothing: a worker with a
// chunk in hand is leased one more if the queue has one right now
// (actNone otherwise, and once it holds maxLeases), so the handler goes
// back to reading that worker's results. With no work available — or
// with the fleet below Options.MinLiveWorkers, which holds dispatch
// rather than burn attempts on a depopulated cluster — a worker that
// holds nothing gets a heartbeat after HeartbeatInterval, timed on idle,
// the connection's one timer, so it can tell the master is alive; after
// Close it gets END.
func (m *Master) nextTask(w *workerConn, idle *time.Timer) (taskMsg, int) {
	// Every round start, finish and requeue wakes the loop below; a timer
	// made per pass would stay live until it fired.
	if !idle.Stop() {
		select {
		case <-idle.C:
		default:
		}
	}
	idle.Reset(m.opts.HeartbeatInterval)
	for {
		m.mu.Lock()
		held := len(w.leases)
		if held >= maxLeases || (m.closed && held > 0) {
			m.mu.Unlock()
			return taskMsg{}, actNone
		}
		if m.closed {
			m.mu.Unlock()
			return taskMsg{End: true}, actEnd
		}
		if r := m.cur; r != nil && len(r.queue) > 0 && len(m.conns) >= m.opts.MinLiveWorkers {
			chunk := r.pickLocked(w, chunkSize(r.queue, len(m.conns)))
			now := time.Now()
			waits := make([]time.Duration, len(chunk))
			for i, t := range chunk {
				t.attempts++
				t.worker = w
				waits[i] = now.Sub(t.enqueued)
			}
			msg, parentBytes := r.chunkMsgLocked(w, chunk)
			w.leases = append(w.leases, lease{tasks: chunk, round: r, started: now})
			m.mu.Unlock()
			m.stats.tasksDispatched.Add(int64(len(chunk)))
			m.stats.chunksDispatched.Add(1)
			if held > 0 {
				m.stats.chunksLeasedAhead.Add(1)
			}
			m.stats.parentsShipped.Add(int64(len(msg.Parents)))
			m.stats.parentBytesShipped.Add(parentBytes)
			for _, wait := range waits {
				m.opts.Metrics.Observe(obs.StageDispatch, wait)
			}
			return msg, actTask
		}
		wake := m.wake
		m.mu.Unlock()
		if held > 0 {
			return taskMsg{}, actNone
		}
		select {
		case <-wake:
		case <-idle.C:
			return taskMsg{Heartbeat: true}, actHeartbeat
		}
	}
}

// chunkMsgLocked is the wire message leasing chunk to w: its tasks,
// w's keep list if this is w's first chunk of the round, and the parent
// profiles the tasks name that w neither retains nor was shipped this
// round, as long as they add up to at most maxChunkParentBytes. A
// parent left out may go with a later chunk that names it; a task whose
// parent is not shipped searches what it would have lifted. It returns
// the message and the bytes of the profiles it ships. Caller holds
// Master.mu.
func (r *round) chunkMsgLocked(w *workerConn, chunk []*task) (taskMsg, int64) {
	msg := taskMsg{Round: r.id, RoundSize: len(r.seqs), GenAware: r.genAware, TargetFirst: r.targetFirst,
		Tasks: make([]candidate, len(chunk)), Keep: r.keep[w]}
	delete(r.keep, w) // only a pool's first chunk of a round carries members over
	var parentBytes int64
	for i, t := range chunk {
		s := r.seqs[t.index]
		msg.Tasks[i] = candidate{Index: t.index, Attempt: t.attempts,
			Name: s.Name(), Residues: s.Residues(),
			Parent: t.parents[0], ParentB: t.parents[1]}
		for k, parent := range t.parents {
			size := int64(len(t.profiles[k].Profile))
			if _, sent := r.shipped[w][parent]; sent || size == 0 || t.homes[k] == w || parentBytes+size > maxChunkParentBytes {
				continue
			}
			if r.shipped[w] == nil {
				r.shipped[w] = make(map[string]struct{})
			}
			r.shipped[w][parent] = struct{}{}
			msg.Parents = append(msg.Parents, t.profiles[k])
			parentBytes += size
		}
	}
	return msg, parentBytes
}

// checkResults rejects a request no honest worker sends: more results
// than the largest chunk this connection was ever leased, a score vector
// of the wrong length, a profile above maxProfileBytes, or a target-only
// result that answers a chunk without the target-first mark (targetFirst
// says whether the chunk it answers has it) or carries a target score
// other than 0 or any non-target score. What is in a profile is not the
// master's to check: it never reads one.
func (m *Master) checkResults(req requestMsg, maxLeased int, targetFirst bool) error {
	if len(req.Results) > maxLeased {
		return fmt.Errorf("%d results, largest chunk leased %d", len(req.Results), maxLeased)
	}
	for _, res := range req.Results {
		if res.TargetOnly {
			if !targetFirst || res.Target != 0 || len(res.NonTarget) > 0 {
				return fmt.Errorf("target-only result %d (target-first chunk: %v) carries target %v and %d non-target scores",
					res.Index, targetFirst, res.Target, len(res.NonTarget))
			}
		} else if len(res.NonTarget) != len(m.setup.NonTargetIDs) {
			return fmt.Errorf("result %d has %d non-target scores, want %d", res.Index, len(res.NonTarget), len(m.setup.NonTargetIDs))
		}
		if len(res.Profile) > maxProfileBytes {
			return fmt.Errorf("result %d carries a %d-byte profile, bound %d", res.Index, len(res.Profile), maxProfileBytes)
		}
	}
	return nil
}

// answersTargetFirst reports whether the chunk w's next results answer
// — its oldest lease — carries the target-first mark.
func (m *Master) answersTargetFirst(w *workerConn) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(w.leases) > 0 && w.leases[0].round.targetFirst
}

// resultBudget is what one result may add to a request message's byte
// budget: its scores at nine bytes each, its profile at the bound, and
// gob's framing of the rest.
func resultBudget(nonTargets int) int64 {
	return int64(64 + 9*(1+nonTargets) + maxProfileBytes)
}

func (m *Master) isClosed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// handle speaks the leased work-request protocol with one worker. Any
// protocol failure, and LeaseTimeout of silence, drops the connection;
// release re-queues whatever the worker was holding.
func (m *Master) handle(conn net.Conn) {
	defer m.wg.Done()
	defer conn.Close()
	w := &workerConn{conn: conn}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.conns[w] = struct{}{}
	m.mu.Unlock()
	m.stats.workerConnects.Add(1)
	m.opts.Logger.Debug("worker connected", "worker", conn.RemoteAddr().String())
	silent := false
	defer func() { m.release(w, silent) }()

	enc := gob.NewEncoder(conn)
	in := &budgetReader{r: conn}
	dec := gob.NewDecoder(in)
	// A worker never legitimately returns more results than the largest
	// chunk this connection was leased; that bounds every message read.
	maxLeased := 0
	perResult := resultBudget(len(m.setup.NonTargetIDs))
	idle := time.NewTimer(m.opts.HeartbeatInterval) // nextTask's heartbeat clock
	defer idle.Stop()
	_ = conn.SetWriteDeadline(time.Now().Add(setupTimeout))
	if err := enc.Encode(m.setup); err != nil {
		m.opts.Logger.Warn("setup broadcast failed",
			"worker", conn.RemoteAddr().String(), "err", err)
		return
	}
	// farewell answers a graceful drain: the results (if any) are already
	// delivered, and what is still leased to this worker it never started,
	// so it departs without burning any task attempts.
	farewell := func() {
		m.mu.Lock()
		m.revokeLocked(w, false)
		m.mu.Unlock()
		m.stats.workersDrained.Add(1)
		m.opts.Logger.Debug("worker drained", "worker", conn.RemoteAddr().String())
		_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		_ = enc.Encode(taskMsg{End: true})
	}
	// The first request arrives only after the worker rebuilt its engine
	// from the broadcast, so it gets the generous setup deadline; every
	// later read gets the silence bound.
	readTimeout := setupTimeout
	for {
		to := readTimeout
		if m.isClosed() {
			to = m.opts.LeaseTimeout // don't outlive Close's grace window
		}
		_ = conn.SetReadDeadline(time.Now().Add(to))
		in.left = msgBudgetBase + int64(maxLeased)*perResult
		var req requestMsg
		if err := dec.Decode(&req); err != nil {
			silent = isTimeout(err)
			return
		}
		if err := m.checkResults(req, maxLeased, m.answersTargetFirst(w)); err != nil {
			m.opts.Logger.Warn("protocol violation; dropping worker",
				"worker", conn.RemoteAddr().String(), "err", err)
			return
		}
		readTimeout = m.opts.LeaseTimeout
		if req.Heartbeat {
			if m.isClosed() {
				_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
				_ = enc.Encode(taskMsg{End: true})
				return
			}
			m.stats.heartbeatsReceived.Add(1)
			continue
		}
		// Always: a request without results from a worker that holds a
		// chunk hands its oldest chunk back.
		m.deliver(w, req)
		if req.Leaving {
			farewell()
			return
		}
		// Lease until the worker holds maxLeases chunks or the queue has
		// nothing for it; wait for work only while it holds none.
		hbMisses := 0
		for {
			msg, act := m.nextTask(w, idle)
			if act == actNone {
				break
			}
			_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			if err := enc.Encode(msg); err != nil {
				return // release re-queues a just-leased task
			}
			if act == actEnd {
				return
			}
			if act == actTask {
				maxLeased = max(maxLeased, len(msg.Tasks))
				continue
			}
			// Idle heartbeat sent. The worker answers every idle heartbeat
			// (an ack, or Leaving to drain), so the exchange stays strictly
			// alternating and an idle goodbye is actually read. Poll one
			// interval for the answer: a worker silent for as many
			// consecutive idle heartbeats as cover LeaseTimeout is declared
			// dead, and in between the handler keeps returning to nextTask
			// — a silently partitioned worker therefore still takes leases
			// into the void (burning that task's attempt) instead of
			// wedging dispatch.
			_ = conn.SetReadDeadline(time.Now().Add(m.opts.HeartbeatInterval))
			in.left = msgBudgetBase
			var ack requestMsg
			if err := dec.Decode(&ack); err != nil {
				if isTimeout(err) {
					hbMisses++
					if hbMisses >= m.opts.heartbeatMisses() {
						return
					}
					continue
				}
				return
			}
			hbMisses = 0
			if ack.Leaving {
				farewell()
				return
			}
			// Ack (or a stale compute heartbeat); keep waiting for work.
		}
	}
}

// EvaluateAll distributes the candidates to connected workers and
// blocks until every result is in; see EvaluateAllContext.
func (m *Master) EvaluateAll(seqs []seq.Sequence) ([]cluster.Result, error) {
	return m.EvaluateAllContext(context.Background(), seqs)
}

// EvaluateAllContext distributes the candidates to connected workers
// and blocks until every result is in, the context is cancelled, or the
// master is closed. At least one worker must connect eventually or the
// call blocks until cancellation. Parent hints attached to ctx
// (cluster.WithParentHints, WithSecondParents) travel with each
// candidate and decide which worker it is offered to first — the one
// whose pool retains its parents — so workers preprocess children
// incrementally as the in-process pool does. Hinted members the call
// does not evaluate stay retained on the worker that holds them. The
// cluster.WithTargetFirst mark travels with every chunk, so a worker
// answers a candidate whose target scores exactly 0 target-only, as the
// in-process pool does.
//
// Results are indexed like seqs. A task whose every dispatch failed is
// reported in its Result.Err (wrapping ErrTaskAbandoned) rather than as
// a call error, so one poison candidate cannot sink a generation.
//
// Rounds are serialized: a second call while one is in flight fails
// fast with ErrBusy. After cancellation, stragglers' results for the
// dead round are dropped, never leaked into the next round.
func (m *Master) EvaluateAllContext(ctx context.Context, seqs []seq.Sequence) ([]cluster.Result, error) {
	if len(seqs) == 0 {
		return nil, nil
	}
	hints, genAware := cluster.ParentHintsFrom(ctx)
	r := &round{
		seqs:        seqs,
		genAware:    genAware,
		targetFirst: cluster.TargetFirstFrom(ctx),
		done:        make([]bool, len(seqs)),
		remaining:   len(seqs),
		results:     make([]cluster.Result, len(seqs)),
		finished:    make(chan struct{}),
		profiles:    make([]parentProfile, len(seqs)),
		shipped:     make(map[*workerConn]map[string]struct{}),
	}
	for i := range seqs {
		r.results[i].Index = i
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrMasterClosed
	}
	if m.cur != nil {
		m.mu.Unlock()
		return nil, ErrBusy
	}
	r.id = m.stats.roundsStarted.Add(1)
	// Claim the round slot with nothing queued: no lease is granted while
	// the tasks are planned, and home is this call's until the slot is
	// given up.
	m.cur = r
	live := make(map[*workerConn]struct{}, len(m.conns))
	for w := range m.conns {
		live[w] = struct{}{}
	}
	m.mu.Unlock()
	second := cluster.SecondParentsFrom(ctx)
	m.home = r.plan(hints, second, m.home, live)
	m.profiles = r.parentProfiles(hints, second, m.profiles)
	m.mu.Lock()
	r.queue = append([]*task(nil), r.tasks...)
	m.wakeLocked()
	m.mu.Unlock()
	endRound := m.opts.Logger.Span("round", "tasks", len(seqs), "workers", m.Workers())

	finish := func(cancelled bool) {
		m.mu.Lock()
		if cancelled {
			r.cancelled = true
		}
		if m.cur == r {
			m.cur = nil
		}
		m.wakeLocked()
		m.mu.Unlock()
	}
	select {
	case <-r.finished:
		if r.genAware {
			// Workers retain what a generation-aware round had them evaluate,
			// and the master what they said its profile was.
			for i, t := range r.tasks {
				if r.results[i].Err == nil {
					m.home[seqs[i].Residues()] = t.worker
					if len(r.profiles[i].Profile) > 0 {
						m.profiles[seqs[i].Residues()] = r.profiles[i]
					}
				}
			}
		}
		finish(false)
		m.stats.roundsCompleted.Add(1)
		endRound("outcome", "completed")
		return r.results, nil
	case <-ctx.Done():
		finish(true)
		m.stats.roundsCancelled.Add(1)
		endRound("outcome", "cancelled")
		return nil, ctx.Err()
	case <-m.closedCh:
		finish(true)
		endRound("outcome", "master closed")
		return nil, ErrMasterClosed
	}
}

// Close sends END to all workers, aborts any in-flight round with
// ErrMasterClosed, and shuts the listener down. Workers that die while
// Close drains are released harmlessly (their tasks have nowhere to
// go and are dropped with the round). Close is idempotent.
func (m *Master) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	close(m.closedCh)
	m.wakeLocked()
	// Handlers parked in a read (worker mid-compute, or a broken peer
	// that never sent its first request) get one silence bound to finish
	// their exchange before the deadline cuts them loose — Close must not
	// wait out setupTimeout on a wedged connection.
	grace := time.Now().Add(m.opts.LeaseTimeout)
	for w := range m.conns {
		_ = w.conn.SetReadDeadline(grace)
	}
	m.mu.Unlock()
	err := m.ln.Close()
	m.wg.Wait()
	return err
}

// Stats returns a point-in-time snapshot of the master's
// fault-tolerance counters.
func (m *Master) Stats() Stats {
	s := m.stats.snapshot()
	s.WorkersConnected = m.Workers()
	return s
}

// isTimeout reports whether err is a read or write deadline passing.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// EWMAServiceTime returns the exponentially weighted moving average of
// per-task service time (a chunk's lease grant to result, divided by its
// size), or 0 before any task completed.
func (m *Master) EWMAServiceTime() time.Duration {
	return time.Duration(m.stats.serviceEWMANS.Load())
}
