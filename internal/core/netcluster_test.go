package core

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/evalbackend"
	"repro/internal/ga"
	"repro/internal/netcluster"
	"repro/internal/obs"
)

// TestChunkedNetclusterMatchesPool: a 10-generation GA run evaluated
// through chunked leases on 1, 2 and 3 loopback workers must walk the
// in-process pool's trajectory exactly — same population hash and best
// fitness every generation — whichever worker evaluated whichever chunk
// and whether a child's parent was retained there or not. With the
// fitness cache on, survivors are answered by the master's side and
// travel only as members to keep; with it off, every member is a task.
func TestChunkedNetclusterMatchesPool(t *testing.T) {
	for _, cached := range []bool{true, false} {
		t.Run(fmt.Sprintf("fitness cache %v", cached), func(t *testing.T) { chunkedNetclusterMatchesPool(t, cached) })
	}
}

func chunkedNetclusterMatchesPool(t *testing.T, cached bool) {
	_, eng := setup(t)
	trajectory := func(backend evalbackend.Backend) []string {
		opts := designOpts(24, 10, 4242)
		opts.Termination = ga.Termination{MinGenerations: 10, MaxGenerations: 10}
		opts.DisableFitnessCache = !cached
		opts.Backend = backend
		var out []string
		opts.OnJournalRecord = func(rec *obs.GenerationRecord) {
			out = append(out, fmt.Sprintf("%s %x", rec.PopHash, rec.BestFitness))
		}
		if _, err := Design(eng, 0, []int{1, 2}, opts); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := trajectory(nil)
	if len(want) != 10 {
		t.Fatalf("in-process run journalled %d generations, want 10", len(want))
	}
	for workers := 1; workers <= 3; workers++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		m := netcluster.NewMaster(netcluster.NewSetup(eng, 0, []int{1, 2}, 1), ln)
		ctx, stop := context.WithCancel(context.Background())
		for w := 0; w < workers; w++ {
			go netcluster.RunWorkerLoop(ctx, m.Addr(), netcluster.WorkerOptions{})
		}
		for deadline := time.Now().Add(30 * time.Second); m.Workers() < workers; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d workers connected", m.Workers(), workers)
			}
		}
		got := trajectory(evalbackend.NewMaster(m))
		st := m.Stats()
		stop()
		m.Close()
		if len(got) != len(want) {
			t.Fatalf("%d workers: %d generations, want %d", workers, len(got), len(want))
		}
		for g := range want {
			if got[g] != want[g] {
				t.Errorf("%d workers, generation %d: %s, in-process %s", workers, g, got[g], want[g])
			}
		}
		if st.ChunksDispatched >= st.TasksDispatched || st.TasksReissued != 0 {
			t.Errorf("%d workers: %d tasks in %d chunks, %d re-issued", workers, st.TasksDispatched, st.ChunksDispatched, st.TasksReissued)
		}
		// Reuse on the workers: a child is a delta build wherever it is
		// leased, from parents its worker retains or was shipped with the
		// chunk, so the fleet's size does not show in the count.
		afterGen0 := st.TasksCompleted - 24
		if st.DeltaReusedWindows == 0 || 10*st.DeltaQueries < 9*afterGen0 {
			t.Errorf("%d workers: %d delta builds (%d windows lifted) for %d tasks after generation 0, want at least 0.9 of them",
				workers, st.DeltaQueries, st.DeltaReusedWindows, afterGen0)
		}
	}
}
