package netcluster

import (
	"sync/atomic"
	"time"
)

// statsCounters are the master's monotonic fault-tolerance counters.
type statsCounters struct {
	workerConnects     atomic.Int64
	workerDisconnects  atomic.Int64
	tasksDispatched    atomic.Int64
	chunksDispatched   atomic.Int64
	tasksCompleted     atomic.Int64
	tasksReissued      atomic.Int64
	leasesExpired      atomic.Int64
	tasksQuarantined   atomic.Int64
	resultsDropped     atomic.Int64
	heartbeatsReceived atomic.Int64
	roundsStarted      atomic.Int64
	roundsCompleted    atomic.Int64
	roundsCancelled    atomic.Int64
	workersDrained     atomic.Int64
	serviceEWMANS      atomic.Int64
	chunksLeasedAhead  atomic.Int64
	parentsShipped     atomic.Int64
	parentBytesShipped atomic.Int64

	// Worker-engine cache activity, summed from accepted result messages.
	windowHits, windowMisses         atomic.Int64
	deltaQueries, deltaReusedWindows atomic.Int64
}

func (c *statsCounters) addCache(d cacheCounters) {
	c.windowHits.Add(d.WindowHits)
	c.windowMisses.Add(d.WindowMisses)
	c.deltaQueries.Add(d.DeltaQueries)
	c.deltaReusedWindows.Add(d.DeltaReusedWindows)
}

// serviceEWMAAlpha weights each completed task's service time into the
// running estimate: low enough to ride out one noisy task, high enough
// to track a fleet that degrades within tens of tasks.
const serviceEWMAAlpha = 0.2

// observeService folds one completed chunk's per-task lease-to-result
// time into the service-time EWMA.
func (c *statsCounters) observeService(d time.Duration) {
	for {
		prev := c.serviceEWMANS.Load()
		next := int64(d)
		if prev > 0 {
			next = int64(serviceEWMAAlpha*float64(d) + (1-serviceEWMAAlpha)*float64(prev))
		}
		if c.serviceEWMANS.CompareAndSwap(prev, next) {
			return
		}
	}
}

func (c *statsCounters) snapshot() Stats {
	return Stats{
		WorkerConnects:     c.workerConnects.Load(),
		WorkerDisconnects:  c.workerDisconnects.Load(),
		TasksDispatched:    c.tasksDispatched.Load(),
		ChunksDispatched:   c.chunksDispatched.Load(),
		TasksCompleted:     c.tasksCompleted.Load(),
		TasksReissued:      c.tasksReissued.Load(),
		LeasesExpired:      c.leasesExpired.Load(),
		TasksQuarantined:   c.tasksQuarantined.Load(),
		ResultsDropped:     c.resultsDropped.Load(),
		HeartbeatsReceived: c.heartbeatsReceived.Load(),
		RoundsStarted:      c.roundsStarted.Load(),
		RoundsCompleted:    c.roundsCompleted.Load(),
		RoundsCancelled:    c.roundsCancelled.Load(),
		WorkersDrained:     c.workersDrained.Load(),
		ServiceEWMANS:      c.serviceEWMANS.Load(),
		ChunksLeasedAhead:  c.chunksLeasedAhead.Load(),
		ParentsShipped:     c.parentsShipped.Load(),
		ParentBytesShipped: c.parentBytesShipped.Load(),
		WindowHits:         c.windowHits.Load(),
		WindowMisses:       c.windowMisses.Load(),
		DeltaQueries:       c.deltaQueries.Load(),
		DeltaReusedWindows: c.deltaReusedWindows.Load(),
	}
}

// Stats is a point-in-time snapshot of a Master's fault-tolerance
// counters; obtain one with Master.Stats.
type Stats struct {
	// WorkersConnected is the current fleet size (a gauge).
	WorkersConnected int
	// WorkerConnects / WorkerDisconnects count connections accepted and
	// dropped over the master's lifetime; their difference plus
	// WorkersConnected exposes reconnect churn.
	WorkerConnects    int64
	WorkerDisconnects int64
	// TasksDispatched counts tasks leased (re-issues included), each
	// candidate of a chunk once; TasksCompleted counts results accepted.
	// ChunksDispatched counts the lease messages that carried them.
	TasksDispatched  int64
	TasksCompleted   int64
	ChunksDispatched int64
	// TasksReissued counts tasks re-queued after a failed attempt — the
	// worker died or went silent.
	TasksReissued int64
	// LeasesExpired counts workers dropped for silence while they held
	// chunks: nothing came from them for LeaseTimeout.
	LeasesExpired int64
	// TasksQuarantined counts tasks abandoned after MaxAttempts and
	// reported as per-task errors.
	TasksQuarantined int64
	// ResultsDropped counts results discarded: a cancelled round's, or
	// ones that answer no lease.
	ResultsDropped int64
	// HeartbeatsReceived counts worker liveness pings.
	HeartbeatsReceived int64
	// Round lifecycle counters for EvaluateAllContext calls.
	RoundsStarted   int64
	RoundsCompleted int64
	RoundsCancelled int64
	// WorkersDrained counts workers that announced a graceful departure
	// (requestMsg.Leaving) instead of vanishing — their last result was
	// delivered and no task attempt was burned.
	WorkersDrained int64
	// ServiceEWMANS is the exponentially weighted moving average of
	// per-task service time (a chunk's lease grant to result, divided by
	// its size), in nanoseconds; 0 before any task completed. This is
	// the estimate elastic dispatchers use to size batches.
	ServiceEWMANS int64
	// ChunksLeasedAhead counts the chunks (of ChunksDispatched) sent to a
	// worker that still held one: it finds them in its socket buffer when
	// it sends the results of the chunk in front.
	ChunksLeasedAhead int64
	// ParentsShipped counts parent profiles sent with chunks whose worker
	// did not retain the parent; ParentBytesShipped is their wire size.
	// Against TasksCompleted they say what lineage misses cost: about one
	// task in six and 400 B each on a two-worker D200 run.
	ParentsShipped     int64
	ParentBytesShipped int64
	// Window-table and delta-preprocessing activity of the workers'
	// engines, summed over the chunks whose results were accepted (a
	// cancelled round's late results add nothing). DeltaReusedWindows
	// counts the windows delta builds did not search: lifted from a
	// parent's profile, or read from the window table where a partial
	// parent lent them (pipe.Engine.DeltaStats).
	WindowHits         int64
	WindowMisses       int64
	DeltaQueries       int64
	DeltaReusedWindows int64
}
