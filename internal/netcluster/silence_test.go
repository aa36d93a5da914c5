package netcluster

// The one silence clock: a worker's leases end only with its connection,
// and Options.LeaseTimeout alone decides when a silent connection ends.

import (
	"net"
	"testing"
	"time"

	"repro/internal/faultnet"
)

// TestPartitionedWorkerLeaseExpires: under default-shaped options — a
// lease and an attempt budget, no liveness tuning — a worker partitioned
// while it holds a chunk is dropped when the lease timeout passes. That
// is one lease expiry, and each task of the chunk it had started is
// re-issued once; a chunk leased ahead goes back unstarted.
func TestPartitionedWorkerLeaseExpires(t *testing.T) {
	_, eng := setupEngine(t)
	m := startMasterOpts(t, []int{1, 2}, 1, Options{LeaseTimeout: 300 * time.Millisecond, MaxAttempts: 5})
	prof := faultnet.NewProfile()
	cut, err := dialProto(m.Addr(), faultnet.Dialer(prof))
	if err != nil {
		t.Fatal(err)
	}
	defer cut.close()

	seqs := randomSeqs(13, 5, 110)
	roundDone := make(chan roundResult, 1)
	go func() {
		results, err := m.EvaluateAll(seqs)
		roundDone <- roundResult{results, err}
	}()
	held, err := cut.next(requestMsg{})
	if err != nil {
		t.Fatal(err)
	}
	prof.Partition()
	go RunWorkerLoop(workerContext(t), m.Addr(), WorkerOptions{})

	r := waitRound(t, roundDone)
	if r.err != nil {
		t.Fatal(r.err)
	}
	verifyScores(t, eng, seqs, r.results)
	for _, c := range held.Tasks {
		if got := r.results[c.Index].Attempts; got != 2 {
			t.Errorf("task %d of the partitioned worker's chunk took %d attempts, want 2", c.Index, got)
		}
	}
	st := m.Stats()
	if st.LeasesExpired != 1 || st.TasksReissued != int64(len(held.Tasks)) || st.WorkerDisconnects != 1 {
		t.Errorf("stats: %d leases expired, %d re-issued, %d disconnects; want 1, %d, 1",
			st.LeasesExpired, st.TasksReissued, st.WorkerDisconnects, len(held.Tasks))
	}
}

// TestDefaultTiming pins the default liveness timing, for Options{} and
// for what insips' default flags pass (-lease DefaultLeaseTimeout,
// -max-attempts 3, -heartbeat 0): a silent worker is dropped 15s after
// its last message, workers heartbeat every 5s, and the Setup carries
// 5000ms and 3 misses, which a worker reads as the same 15s bound on the
// master's silence.
func TestDefaultTiming(t *testing.T) {
	_, eng := setupEngine(t)
	for name, opts := range map[string]Options{
		"Options{}":       {},
		"insips defaults": {LeaseTimeout: DefaultLeaseTimeout, MaxAttempts: 3},
	} {
		o := opts.withDefaults()
		if o.LeaseTimeout != 15*time.Second || o.HeartbeatInterval != 5*time.Second || o.heartbeatMisses() != 3 {
			t.Errorf("%s: silence bound %s, heartbeat %s, %d misses; want 15s, 5s, 3",
				name, o.LeaseTimeout, o.HeartbeatInterval, o.heartbeatMisses())
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		m := NewMasterOptions(NewSetup(eng, 0, []int{1}, 1), ln, opts)
		pw, err := dialProto(m.Addr(), nil)
		if err != nil {
			t.Fatal(err)
		}
		pw.close()
		m.Close()
		if pw.setup.HeartbeatIntervalMS != 5000 || pw.setup.HeartbeatMisses != 3 {
			t.Errorf("%s: Setup carries %dms and %d misses, want 5000ms and 3", name, pw.setup.HeartbeatIntervalMS, pw.setup.HeartbeatMisses)
		}
		if interval, timeout := cadence(pw.setup); interval != 5*time.Second || timeout != 15*time.Second {
			t.Errorf("%s: a worker heartbeats every %s and waits %s for the master, want 5s and 15s", name, interval, timeout)
		}
	}
	// A master that sends no cadence gets a worker on the same defaults.
	if interval, timeout := cadence(Setup{}); interval != 5*time.Second || timeout != 15*time.Second {
		t.Errorf("without a broadcast cadence a worker heartbeats every %s and waits %s, want 5s and 15s", interval, timeout)
	}
}

// TestHeartbeatIntervalClamp: the interval defaults to a third of the
// lease within [10ms, 5s], and an explicit one that would leave fewer than
// two beats inside the lease is clamped to half of it. The misses the
// Setup carries are the beats that cover the lease, rounded up.
func TestHeartbeatIntervalClamp(t *testing.T) {
	cases := []struct {
		lease, interval time.Duration
		want            time.Duration
		misses          int
	}{
		{300 * time.Millisecond, 0, 100 * time.Millisecond, 3},
		{2 * time.Second, 0, 666666667, 3},
		{15 * time.Millisecond, 0, 7500 * time.Microsecond, 2},
		{time.Minute, 0, 5 * time.Second, 12},
		{300 * time.Millisecond, 150 * time.Millisecond, 150 * time.Millisecond, 2},
		{300 * time.Millisecond, 250 * time.Millisecond, 150 * time.Millisecond, 2},
		{300 * time.Millisecond, time.Hour, 150 * time.Millisecond, 2},
		{150 * time.Millisecond, 70 * time.Millisecond, 70 * time.Millisecond, 3},
		{time.Second, 25 * time.Millisecond, 25 * time.Millisecond, 40},
	}
	for _, c := range cases {
		o := Options{LeaseTimeout: c.lease, HeartbeatInterval: c.interval}.withDefaults()
		if o.HeartbeatInterval != c.want || o.heartbeatMisses() != c.misses {
			t.Errorf("lease %s, interval %s: got %s and %d misses, want %s and %d",
				c.lease, c.interval, o.HeartbeatInterval, o.heartbeatMisses(), c.want, c.misses)
		}
	}
}
