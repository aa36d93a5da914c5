package server

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/jobstore"
	"repro/internal/obs"
)

// claimConfig wires the claim loops to the job store: they claim jobs
// under a lease, renew while running, resume orphans from their journal
// checkpoints, and on a handoff drain release running jobs back to the
// store.
type claimConfig struct {
	store     *jobstore.Store
	replicaID string
	// lease is how long a claim lasts without renewal; renewal runs at
	// lease/3. A replica killed hard stops renewing and its jobs become
	// claimable after one lease.
	lease time.Duration
	// poll is how often an idle claim loop looks at the store unprompted:
	// the only way it learns of a peer replica's submits and releases
	// and of expired leases. This replica's own submits do not wait for
	// it; they send on wake.
	poll time.Duration
	// wake carries a token per submit on this replica, dropped
	// when the channel is full. It holds one token per claim loop: every
	// token is taken by a loop that then claims, so a submit that finds
	// the channel full is still followed by a claim, and its job cannot
	// be missed. A token outliving its job (a loop coming off a run
	// claimed it unprompted) costs one empty Claim, nothing else.
	wake chan struct{}
	// weights is the tenant fair-share weight map (tenantRegistry).
	weights map[string]float64
	// resolve re-validates a stored raw DesignRequest into a runnable
	// spec (Server.specFromRequest). Resolution is deterministic given
	// the same proteome, so every replica derives the same spec.
	resolve func(json.RawMessage) (designSpec, error)
}

// storeState maps a local JobState to its jobstore terminal state.
func storeState(s JobState) jobstore.State {
	switch s {
	case JobDone:
		return jobstore.Done
	case JobCancelled:
		return jobstore.Cancelled
	default:
		return jobstore.Failed
	}
}

// localState maps a jobstore state to the API's JobState.
func localState(s jobstore.State) JobState {
	switch s {
	case jobstore.Pending:
		return JobQueued
	case jobstore.Running:
		return JobRunning
	case jobstore.Done:
		return JobDone
	case jobstore.Cancelled:
		return JobCancelled
	default:
		return JobFailed
	}
}

// wakeClaimLoop tells an idle claim loop that the store has a new
// pending job. Never blocks.
func (cc *claimConfig) wakeClaimLoop() {
	select {
	case cc.wake <- struct{}{}:
	default:
	}
}

// claimLoop claims and runs jobs from the store until drain lets it go.
// After a job it claims again at once; with nothing to claim it waits
// for a local submit, the poll tick or drain, whichever is first. Once
// drain has begun it exits when halted or — the memory-store drain,
// where nobody else could run what is left — on the first Claim after
// that to find nothing: draining was set before stop closed and submit
// reads it inside the store transaction, so every job admitted is in
// the store by then.
func (s *jobStore) claimLoop() {
	defer s.wg.Done()
	cc := &s.claim
	// One timer, re-armed per idle pass: most waits end early on a wake,
	// and a timer made per wait would stay live for the rest of its poll
	// interval each time.
	tick := time.NewTimer(cc.poll)
	defer tick.Stop()
	for {
		stopped := false
		select {
		case <-s.stop:
			stopped = true
		default:
		}
		s.mu.Lock()
		halted := s.halted
		s.mu.Unlock()
		if halted {
			return
		}
		rec, recovered, ok, err := cc.store.Claim(cc.replicaID, cc.lease, cc.weights)
		if err != nil {
			s.obs.logger.Warn("job claim failed", "replica", cc.replicaID, "err", err)
			ok = false
		}
		if ok {
			s.runClaimed(rec, recovered)
			continue
		}
		if stopped {
			return
		}
		if !tick.Stop() {
			select {
			case <-tick.C:
			default:
			}
		}
		tick.Reset(cc.poll)
		select {
		case <-s.stop:
		case <-cc.wake:
		case <-tick.C:
		}
	}
}

// dropJob removes a job from the local live mirror (lease lost or
// released: the shared store owns the truth, lookups fall through to
// it).
func (s *jobStore) dropJob(id string) {
	s.mu.Lock()
	delete(s.jobs, id)
	s.mu.Unlock()
}

// runClaimed executes one claimed job end to end: local mirror
// registration, lease renewal, checkpoint resume for recovered orphans,
// and the terminal transition back into the store. Outcomes:
//
//   - completed/failed/user-cancelled → store.Finish with the rendered
//     job JSON as the durable result;
//   - handoff drain → final checkpoint (written by RunContext on
//     cancellation) then store.Release: a peer resumes bit-identically;
//   - lease lost (renewal raced a recovery after a stall) → the local
//     run is abandoned and its result discarded: the re-attaching
//     replica owns the job now.
func (s *jobStore) runClaimed(rec jobstore.Record, recovered bool) {
	cc := &s.claim
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j := &job{
		id:      rec.ID,
		tenant:  rec.Tenant,
		cancel:  cancel,
		done:    make(chan struct{}),
		state:   JobRunning,
		created: time.UnixMilli(rec.CreatedMS),
		started: time.Now(),
	}
	jobLogger := s.obs.logger.With("job", j.id, "tenant", j.tenant, "replica", cc.replicaID)

	s.mu.Lock()
	s.jobs[j.id] = j
	s.running++
	if s.halted { // claimed as drain's sweep went by: stop before starting
		cancel()
	}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
	}()

	finishLocal := func(state JobState, finished time.Time, res *core.Result, errMsg string) {
		j.mu.Lock()
		j.state = state
		j.finished = finished
		j.result = res
		j.errMessage = errMsg
		j.mu.Unlock()
		j.markDone()
	}
	// finishBoth records the terminal outcome durably, then locally; the
	// rendered job JSON becomes the store record's result payload, so
	// any replica can serve the finished job without having run it. The
	// store goes first: were the local mirror published first, this
	// replica would answer "done" while a peer reading the store still
	// answered "running". So the payload is rendered from a snapshot
	// that carries the terminal fields but is not yet visible to readers.
	finishBoth := func(state JobState, res *core.Result, runErr error) {
		msg := ""
		if runErr != nil {
			msg = runErr.Error()
		}
		snap := j.snapshot()
		snap.State, snap.Finished, snap.Result, snap.Err = state, time.Now(), res, msg
		payload, err := json.Marshal(renderJobJSON(snap, true))
		if err != nil {
			payload = nil
		}
		if _, err := cc.store.Finish(j.id, cc.replicaID, storeState(state), payload, msg); err != nil {
			jobLogger.Warn("store finish failed", "state", state, "err", err)
		}
		finishLocal(state, snap.Finished, res, msg)
		if runErr != nil {
			jobLogger.Warn("job finished", "state", state, "err", runErr)
		} else {
			jobLogger.Info("job finished", "state", state)
		}
	}

	spec, err := cc.resolve(rec.Spec)
	if err != nil {
		finishBoth(JobFailed, nil, err)
		return
	}
	j.mu.Lock() // the job is already visible to GET /v1/designs/{id}
	j.spec = spec
	j.mu.Unlock()
	if recovered {
		s.metrics.jobsRecovered.Add(1)
		jobLogger.Info("orphaned job re-attached", "attempt", rec.Attempts, "recoveries", rec.Recovered)
	}

	// Lease renewal at lease/3: a lost lease abandons the local run; a
	// cancel request from any replica's API surfaces here.
	var leaseLost atomic.Bool
	renewStop := make(chan struct{})
	defer close(renewStop)
	go func() {
		ticker := time.NewTicker(cc.lease / 3)
		defer ticker.Stop()
		for {
			select {
			case <-renewStop:
				return
			case <-ticker.C:
				r, err := cc.store.Renew(j.id, cc.replicaID, cc.lease)
				switch {
				case errors.Is(err, jobstore.ErrLeaseLost):
					leaseLost.Store(true)
					s.metrics.leasesLost.Add(1)
					jobLogger.Warn("job lease lost, abandoning local run")
					cancel()
					return
				case err != nil:
					jobLogger.Warn("lease renewal failed", "err", err)
				case r.CancelRequested:
					j.mu.Lock()
					j.userCancel = true
					j.mu.Unlock()
					cancel()
				}
			}
		}
	}()

	designer, cleanup, err := s.prepare(j, jobLogger)
	if err != nil {
		finishBoth(JobFailed, nil, err)
		return
	}

	// A job claimed before resumes from its checkpoint in the shared
	// journal — this covers crash-recovered orphans AND drain-released
	// handoffs (which come back as plain Pending records, not lease
	// expiries). Resume is bit-identical to an uninterrupted run; a job
	// interrupted before its first checkpoint restarts from generation 0,
	// and since the GA is deterministic in (seed, generation, slot), the
	// re-run journal duplicates the pre-interruption records exactly. A
	// first claim has no checkpoint of its own to find: anything under
	// its ID was left by another store's job (a memory store numbers
	// from 1 in every process), and without a journal dir there is
	// nowhere to look.
	var res core.Result
	var runErr error
	resumed := false
	if s.obs.journalDir != "" && rec.Attempts > 1 {
		cp, cpErr := obs.LoadCheckpoint(filepath.Join(s.obs.journalDir, j.id))
		switch {
		case cpErr == nil:
			jobLogger.Info("resuming job from checkpoint", "generation", cp.Generation)
			res, runErr = designer.ResumeContext(ctx, cp)
			resumed = true
		case errors.Is(cpErr, obs.ErrNoCheckpoint):
			jobLogger.Info("re-attached job has no checkpoint, restarting from generation 0")
		default:
			cleanup()
			finishBoth(JobFailed, nil, cpErr)
			return
		}
	}
	if !resumed {
		jobLogger.Info("job started",
			"population", j.spec.GA.PopulationSize, "non_targets", len(j.spec.NonTargetIDs))
		res, runErr = designer.RunContext(ctx)
	}
	cleanup()

	s.mu.Lock()
	release := s.release
	s.mu.Unlock()
	j.mu.Lock()
	userCancel := j.userCancel
	j.mu.Unlock()

	switch {
	case runErr == nil:
		finishBoth(JobDone, &res, nil)
	case errors.Is(runErr, context.Canceled):
		switch {
		case leaseLost.Load():
			// Another replica re-attached the job; our result is stale.
			finishLocal(JobFailed, time.Now(), nil, "lease lost: job re-attached by another replica")
			s.dropJob(j.id)
		case release && !userCancel:
			// Graceful handoff: RunContext wrote a final checkpoint, a
			// peer resumes from it.
			if _, err := cc.store.Release(j.id, cc.replicaID); err != nil {
				jobLogger.Warn("drain release failed", "err", err)
			} else {
				s.metrics.jobsReleased.Add(1)
				jobLogger.Info("job released for peer pickup (drain)")
			}
			finishLocal(JobQueued, time.Now(), nil, "")
			s.dropJob(j.id)
		default:
			// Cancellation by the user, or by a drain nobody can take
			// over from, keeps the partial result: the best sequence of
			// the completed generations is still a valid (if
			// under-evolved) design.
			finishBoth(JobCancelled, &res, nil)
		}
	default:
		finishBoth(JobFailed, nil, runErr)
	}
}
