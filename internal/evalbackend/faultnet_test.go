package evalbackend

import (
	"context"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faultnet"
	"repro/internal/netcluster"
	"repro/internal/seq"
)

// afterDispatch is the healthy shard of the fault tests below: it holds
// its first batch until the faulted master has leased a task of the
// round. The steal queue gives each of two shards one candidate per
// pull, so without the wait a fast local pool can pull, score and pull
// again until nothing is left for the master shard to lose, and "one
// task abandoned" would be the outcome of a race.
type afterDispatch struct {
	Backend
	m      *netcluster.Master
	warmup int64 // TasksDispatched before the round under test
}

// localBeside builds that shard over a fresh one-worker pool; call it
// after the master's warm-up round.
func localBeside(t *testing.T, m *netcluster.Master) *afterDispatch {
	return &afterDispatch{Backend: poolBackend(t, 1), m: m, warmup: m.Stats().TasksDispatched}
}

func (b *afterDispatch) EvaluateAll(ctx context.Context, seqs []seq.Sequence) ([]cluster.Result, error) {
	// Only the first batch ever waits: the counter does not come back.
	// Bounded, so a master that never dispatches fails the test's
	// assertions instead of hanging it.
	deadline := time.Now().Add(10 * time.Second)
	for b.m.Stats().TasksDispatched == b.warmup && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return b.Backend.EvaluateAll(ctx, seqs)
}

// stalledMasterShard builds a netcluster master with one real TCP worker
// whose link is fault-injected, runs a warm-up round so the worker is
// parked ready for the next dispatch (its result message doubles as the
// next task request, so after a completed round the master needs no
// further worker I/O to dispatch), then stalls the link. The next task
// dispatched to this master is leased, never answered, and quarantined
// after MaxAttempts=1 — a deterministic abandoned task.
func stalledMasterShard(t *testing.T) *netcluster.Master {
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

// TestShardedFaultnetStallDegradesToAbandonedTasks is the backend-suite
// failure test: a sharded composite where one shard's distributed
// worker stalls mid-round must return the healthy shard's scores
// bit-identically and degrade the stalled shard's task to a per-task
// ErrTaskAbandoned result — not abort the round. Which task the stalled
// shard pulls is up to the scheduler, so the assertions are
// order-agnostic; that it pulls exactly one is not (afterDispatch):
// exactly one task is abandoned, every other result is bit-identical by
// index.
func TestShardedFaultnetStallDegradesToAbandonedTasks(t *testing.T) {
	seqs := candidates(2, 90, 21)
	reference := poolBackend(t, 1)
	want, err := reference.EvaluateAll(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}

	m := stalledMasterShard(t)
	sh, err := NewSharded(localBeside(t, m), NewMaster(m))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sh.EvaluateAll(context.Background(), seqs)
	if err != nil {
		t.Fatalf("degraded round returned call-level error: %v", err)
	}
	abandoned := 0
	for i, r := range got {
		if r.Index != i {
			t.Fatalf("result %d has index %d", i, r.Index)
		}
		if r.Err != nil {
			if !errors.Is(r.Err, netcluster.ErrTaskAbandoned) {
				t.Fatalf("result %d: err = %v, want ErrTaskAbandoned", i, r.Err)
			}
			abandoned++
			continue
		}
		if r.TargetScore != want[i].TargetScore ||
			!reflect.DeepEqual(r.NonTargetScores, want[i].NonTargetScores) {
			t.Fatalf("healthy result %d diverged: %+v", i, r)
		}
	}
	if abandoned != 1 {
		t.Fatalf("abandoned %d tasks, want exactly 1: %+v", abandoned, got)
	}
	mst := m.Stats()
	if mst.TasksQuarantined != 1 || mst.LeasesExpired < 1 {
		t.Fatalf("master stats: %+v", mst)
	}
	st := sh.Stats()
	if st.Abandoned != 1 {
		t.Fatalf("composite stats: %+v", st)
	}
}

// TestRetryRecoversStalledShardOnLocalPool: the cmd/insips
// -fallback-local composition — WithRetry over a sharded composite with
// a local pool fallback — must turn the stalled shard's abandoned task
// into a bit-identical locally-scored result.
func TestRetryRecoversStalledShardOnLocalPool(t *testing.T) {
	seqs := candidates(2, 90, 23)
	reference := poolBackend(t, 1)
	want, err := reference.EvaluateAll(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}

	m := stalledMasterShard(t)
	sh, err := NewSharded(localBeside(t, m), NewMaster(m))
	if err != nil {
		t.Fatal(err)
	}
	b := WithRetry(sh, poolBackend(t, 1), nil)
	got, err := b.EvaluateAll(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, got, want)
	st := b.Stats()
	if st.Retried != 1 || st.Recovered != 1 || st.Abandoned != 1 {
		t.Fatalf("retry stats: %+v", st)
	}
}

// TestShardedClosedMasterDegrades: a shard whose master is already
// closed fails at call level (ErrMasterClosed) on its first pull; the
// work-stealing queue hands its lease back and the healthy pool shard
// absorbs the whole round — every result clean.
func TestShardedClosedMasterDegrades(t *testing.T) {
	_, eng := setup(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m := netcluster.NewMaster(netcluster.NewSetup(eng, 0, []int{1, 2}, 1), ln)
	m.Close()

	sh, err := NewSharded(poolBackend(t, 1), NewMaster(m))
	if err != nil {
		t.Fatal(err)
	}
	seqs := candidates(4, 80, 31)
	want, err := poolBackend(t, 1).EvaluateAll(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sh.EvaluateAll(context.Background(), seqs)
	if err != nil {
		t.Fatalf("degraded round returned call-level error: %v", err)
	}
	assertSameResults(t, got, want)
	if st := sh.Stats(); st.Abandoned != 0 || st.Tasks != int64(len(seqs)) {
		t.Fatalf("composite stats: %+v", st)
	}
}

// partitionedMasterShard is stalledMasterShard's network-partition
// sibling: after the warm-up round the worker's link is partitioned
// (writes swallowed, reads blocked), so the next dispatched task's
// lease expires with no result and MaxAttempts=1 quarantines it.
func partitionedMasterShard(t *testing.T) *netcluster.Master {
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
// partition injector composed with WithRetry over a sharded backend:
// the partitioned shard's quarantined task must come back bit-identical
// from the local fallback, exactly like the stall path.
func TestRetryRecoversPartitionedShardOnLocalPool(t *testing.T) {
	seqs := candidates(3, 90, 29)
	reference := poolBackend(t, 1)
	want, err := reference.EvaluateAll(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}

	m := partitionedMasterShard(t)
	sh, err := NewSharded(localBeside(t, m), NewMaster(m))
	if err != nil {
		t.Fatal(err)
	}
	b := WithRetry(sh, poolBackend(t, 1), nil)
	got, err := b.EvaluateAll(context.Background(), seqs)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, got, want)
	st := b.Stats()
	if st.Retried != 1 || st.Recovered != 1 || st.Abandoned != 1 {
		t.Fatalf("retry stats: %+v", st)
	}
	mst := m.Stats()
	if mst.TasksQuarantined != 1 {
		t.Fatalf("master stats: %+v", mst)
	}
}
