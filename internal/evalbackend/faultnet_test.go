package evalbackend

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/netcluster"
)

// stalledMaster builds a netcluster master with one real TCP worker
// whose link is fault-injected, runs a warm-up round so the worker is
// parked ready for the next dispatch (its result message doubles as the
// next task request, so after a completed round the master needs no
// further worker I/O to dispatch), then stalls the link. The next task
// dispatched to this master is leased, never answered, and quarantined
// after MaxAttempts=1 — a deterministic abandoned task. (Only one: a
// chunk leased ahead to the stalled worker goes back to the queue
// unstarted and waits there for a live worker.)
func stalledMaster(t *testing.T) *netcluster.Master {
	t.Helper()
	_, eng := setup(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m := netcluster.NewMasterOptions(netcluster.NewSetup(eng, 0, []int{1, 2}, 1), ln, netcluster.Options{
		LeaseTimeout:      150 * time.Millisecond,
		HeartbeatInterval: 40 * time.Millisecond,
		HeartbeatMisses:   1000, // liveness stays out of the way: the lease path is under test
		MaxAttempts:       1,
	})
	t.Cleanup(func() { m.Close() })

	prof := faultnet.NewProfile()
	workerCtx, stopWorker := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		netcluster.RunWorkerLoop(workerCtx, m.Addr(), netcluster.WorkerOptions{Dial: faultnet.Dialer(prof)})
	}()
	t.Cleanup(func() { prof.Unstall(); stopWorker(); <-workerDone })

	warm, err := m.EvaluateAllContext(context.Background(), candidates(1, 80, 55))
	if err != nil {
		t.Fatalf("warm-up round: %v", err)
	}
	if len(warm) != 1 || warm[0].Err != nil {
		t.Fatalf("warm-up round results: %+v", warm)
	}
	prof.Stall()
	return m
}

// TestRetryRecoversStalledShardOnLocalPool: the cmd/insips
// -fallback-local composition — WithRetry over a netcluster master with
// a local pool fallback — must turn the task the stalled master
// abandons into a bit-identical locally-scored result. (Named for the
// sharded composite the master used to sit in.)
func TestRetryRecoversStalledShardOnLocalPool(t *testing.T) {
	seqs := candidates(1, 90, 23)
	want, err := poolBackend(t, 1).EvaluateAll(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}

	m := stalledMaster(t)
	b := WithRetry(NewMaster(m), poolBackend(t, 1), nil)
	got, err := b.EvaluateAll(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, got, want)
	assertAllRecovered(t, b.Stats(), m.Stats(), len(seqs))
}

// assertAllRecovered checks the accounting of a round whose primary, a
// master whose one worker is cut off, abandoned every task: each was
// quarantined once, retried on the fallback and recovered there.
func assertAllRecovered(t *testing.T, st Stats, mst netcluster.Stats, n int) {
	t.Helper()
	if st[Abandoned] != int64(n) || st[Retried] != int64(n) || st[Recovered] != int64(n) {
		t.Fatalf("retry stats: %+v, want %d abandoned, retried and recovered", st, n)
	}
	if mst.TasksQuarantined != int64(n) || mst.LeasesExpired < 1 {
		t.Fatalf("master stats: %+v", mst)
	}
}

// partitionedMaster is stalledMaster's network-partition sibling: after
// the warm-up round the worker's link is partitioned (writes swallowed,
// reads blocked), so the next dispatched task's lease expires with no
// result and MaxAttempts=1 quarantines it.
func partitionedMaster(t *testing.T) *netcluster.Master {
	t.Helper()
	_, eng := setup(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m := netcluster.NewMasterOptions(netcluster.NewSetup(eng, 0, []int{1, 2}, 1), ln, netcluster.Options{
		LeaseTimeout:      150 * time.Millisecond,
		HeartbeatInterval: 40 * time.Millisecond,
		HeartbeatMisses:   1000,
		MaxAttempts:       1,
	})
	t.Cleanup(func() { m.Close() })

	prof := faultnet.NewProfile()
	workerCtx, stopWorker := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		netcluster.RunWorkerLoop(workerCtx, m.Addr(), netcluster.WorkerOptions{Dial: faultnet.Dialer(prof)})
	}()
	t.Cleanup(func() { prof.Heal(); stopWorker(); <-workerDone })

	warm, err := m.EvaluateAllContext(context.Background(), candidates(1, 80, 57))
	if err != nil {
		t.Fatalf("warm-up round: %v", err)
	}
	if len(warm) != 1 || warm[0].Err != nil {
		t.Fatalf("warm-up round results: %+v", warm)
	}
	prof.Partition()
	return m
}

// TestRetryRecoversPartitionedShardOnLocalPool covers the faultnet
// partition injector under WithRetry over a netcluster master: the
// partitioned master's quarantined task must come back bit-identical
// from the local fallback, exactly like the stall path.
func TestRetryRecoversPartitionedShardOnLocalPool(t *testing.T) {
	seqs := candidates(1, 90, 29)
	want, err := poolBackend(t, 1).EvaluateAll(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}

	m := partitionedMaster(t)
	b := WithRetry(NewMaster(m), poolBackend(t, 1), nil)
	got, err := b.EvaluateAll(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, got, want)
	assertAllRecovered(t, b.Stats(), m.Stats(), len(seqs))
}
