// Service example: run the insipsd design & scoring service in-process
// and drive a full design campaign over its HTTP API — submit a job,
// watch the learning curve by polling, retrieve the designed FASTA, and
// read the queue and window-table counters off /metrics. This is the
// end-to-end path a production deployment serves to remote clients.
//
//	go run ./examples/service
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/server"
	"repro/internal/yeastgen"
)

func main() {
	log.SetFlags(0)

	// 1. The data a deployment loads once at startup (cmd/insipsd reads
	// these from FASTA/TSV files; cmd/genproteome creates them).
	proteome, err := yeastgen.Generate(yeastgen.TestParams())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("proteome: %d proteins, %d known interactions\n",
		len(proteome.Proteins), proteome.Graph.NumEdges())

	// 2. Start the service. New builds the one engine every request and
	// job runs on, so no request pays for it.
	begin := time.Now()
	srv, err := server.New(server.Config{
		Proteins:      proteome.Proteins,
		Graph:         proteome.Graph,
		QueueWorkers:  2,
		QueueCapacity: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("service (engine included) built in %v\n", time.Since(begin).Round(time.Millisecond))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpServer := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpServer.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	fmt.Printf("insipsd serving on %s\n\n", base)

	// 3. Synchronous scoring: one query against a batch of proteins, with
	// a per-request thread budget (Engine.ScoreMany under the hood).
	target := proteome.Proteins[proteome.WetlabTargetIDs()[0]].Name()
	var score server.ScoreResponse
	postJSON(base+"/v1/score", server.ScoreRequest{
		QueryName: target,
		Against:   []string{proteome.Proteins[1].Name(), proteome.Proteins[2].Name()},
		Threads:   4,
	}, &score)
	fmt.Printf("POST /v1/score (query %s, %d pairs, %d threads, %.1f ms):\n",
		score.Query, len(score.Scores), score.Threads, score.ElapsedMS)
	for _, ps := range score.Scores {
		fmt.Printf("  PIPE(%s, %s) = %.4f\n", score.Query, ps.Name, ps.Score)
	}

	// 4. Submit an asynchronous design campaign against the wet-lab
	// target and poll its generation-level progress.
	var job server.JobJSON
	postJSON(base+"/v1/designs", server.DesignRequest{
		Target:         target,
		MaxNonTargets:  6,
		Population:     40,
		SeqLen:         80,
		MinGenerations: 8,
		MaxGenerations: 12,
		Workers:        2,
		Threads:        2,
	}, &job)
	fmt.Printf("\nPOST /v1/designs -> job %s (%s)\n", job.ID, job.State)

	lastGen := -1
	for !job.State.Terminal() {
		time.Sleep(100 * time.Millisecond)
		getJSON(base+"/v1/designs/"+job.ID, &job)
		if n := len(job.Curve); n > 0 && n-1 > lastGen {
			lastGen = n - 1
			cp := job.Curve[lastGen]
			fmt.Printf("  gen %2d: fitness %.4f  target %.4f  maxNT %.4f\n",
				cp.Generation, cp.Fitness, cp.Target, cp.MaxNonTarget)
		}
	}
	fmt.Printf("job %s finished: %s after %d generations\n", job.ID, job.State, job.Generations)
	if job.Best != nil {
		fmt.Printf("best design: fitness %.4f (target %.4f, max off-target %.4f)\n",
			job.Best.Fitness, job.Best.Target, job.Best.MaxNonTarget)
		fmt.Printf("designed FASTA:\n%s", job.FASTA)
	}

	// 5. The operational counters a fleet scrapes: queue depth, jobs by
	// state, the engine's window-table lookups, request latency.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Println("\nGET /metrics (excerpt):")
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "insipsd_window_table") ||
			strings.HasPrefix(line, "insipsd_jobs") ||
			strings.HasPrefix(line, "insipsd_queue_depth") {
			fmt.Println("  " + line)
		}
	}

	// 6. Graceful drain, as the daemon does on SIGTERM.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = httpServer.Shutdown(ctx)
	if err := srv.Drain(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ndrained cleanly")
}

func postJSON(url string, body, out any) {
	buf, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		log.Fatal(err)
	}
	decode(resp, out)
}

func getJSON(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	decode(resp, out)
}

func decode(resp *http.Response, out any) {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode >= 300 {
		log.Fatalf("%s: %s", resp.Status, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		log.Fatal(err)
	}
}
