// Distributed: the Blue Gene/Q deployment shape on real sockets — a TCP
// master broadcasts the proteome to worker processes (here, goroutines
// standing in for separate machines) and dispenses chunks of candidates
// on demand (paper Section 2.3, Algorithms 1 and 2) — plus the fault
// tolerance the paper's dedicated hardware never needed: leases with
// re-issue, heartbeats, and reconnecting workers. One worker crashes
// mid-round to show the lease machinery re-queue its chunk.
//
//	go run ./examples/distributed [-lease 2s] [-max-attempts 3] [-heartbeat 200ms]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/netcluster"
	"repro/internal/pipe"
	"repro/internal/seq"
	"repro/internal/yeastgen"
)

func main() {
	log.SetFlags(0)
	var (
		lease       = flag.Duration("lease", 2*time.Second, "task lease before the master re-issues it")
		maxAttempts = flag.Int("max-attempts", 3, "dispatch attempts before a task is abandoned")
		heartbeat   = flag.Duration("heartbeat", 200*time.Millisecond, "liveness ping interval (broadcast to workers)")
		backoffMin  = flag.Duration("backoff-min", 50*time.Millisecond, "worker reconnect backoff floor")
		backoffMax  = flag.Duration("backoff-max", 2*time.Second, "worker reconnect backoff ceiling")
	)
	flag.Parse()

	proteome, err := yeastgen.Generate(yeastgen.TestParams())
	if err != nil {
		log.Fatal(err)
	}
	engine, err := pipe.New(proteome.Proteins, proteome.Graph, pipe.Config{}, 0)
	if err != nil {
		log.Fatal(err)
	}
	target := proteome.WetlabTargetIDs()[0]
	nonTargets := []int{1, 2, 3, 4, 5}

	// Master: listen, broadcast the proteome to whoever connects, and
	// track every dispatched task under a lease.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	master := netcluster.NewMasterOptions(
		netcluster.NewSetup(engine, target, nonTargets, 2), ln,
		netcluster.Options{
			LeaseTimeout:      *lease,
			MaxAttempts:       *maxAttempts,
			HeartbeatInterval: *heartbeat,
		})
	fmt.Printf("master listening on %s (lease %s, max %d attempts)\n",
		master.Addr(), *lease, *maxAttempts)

	// Workers: each rebuilds the engine from the broadcast setup — no
	// shared memory, no disk (the paper's workers never touch disk).
	// RunWorkerLoop reconnects with backoff, so these could equally be
	// started before the master.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const workers = 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n, _ := netcluster.RunWorkerLoop(ctx, master.Addr(), netcluster.WorkerOptions{
				ReconnectMin: *backoffMin,
				ReconnectMax: *backoffMax,
			})
			fmt.Printf("worker %d processed %d candidates\n", w, n)
		}(w)
	}
	for master.Workers() < workers {
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Printf("%d workers connected and initialized\n", master.Workers())

	// One generation's worth of candidates, dispatched on demand.
	rng := rand.New(rand.NewSource(1))
	candidates := make([]seq.Sequence, 12)
	for i := range candidates {
		candidates[i] = seq.Random(rng, fmt.Sprintf("cand%02d", i), 130, seq.YeastComposition())
	}
	start := time.Now()
	results, err := master.EvaluateAllContext(ctx, candidates)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("evaluated %d candidates in %s\n", len(results), time.Since(start).Round(time.Millisecond))
	for _, r := range results[:3] {
		fmt.Printf("  candidate %d: PIPE vs target %.3f, max off-target %.3f (attempt %d)\n",
			r.Index, r.TargetScore, maxOf(r.NonTargetScores), r.Attempts)
	}
	if n := countErrs(results); n > 0 {
		fmt.Printf("  %d candidates abandoned after %d attempts\n", n, *maxAttempts)
	}

	st := master.Stats()
	fmt.Printf("stats: %d dispatched in %d chunks, %d completed, %d re-issued, %d leases expired, %d reconnects\n",
		st.TasksDispatched, st.ChunksDispatched, st.TasksCompleted, st.TasksReissued, st.LeasesExpired,
		st.WorkerConnects-int64(workers))

	// Shut down: workers see END, then their loops exit on cancel.
	cancel()
	if err := master.Close(); err != nil {
		log.Fatal(err)
	}
	wg.Wait()
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func countErrs(rs []cluster.Result) int {
	n := 0
	for _, r := range rs {
		if r.Err != nil {
			n++
		}
	}
	return n
}
