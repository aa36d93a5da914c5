package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobstore"
	"repro/internal/pipe"
	"repro/internal/server"
)

const (
	serviceClients = 2                    // closed-loop keep-alive clients
	burstJobs      = 4                    // S40 jobs POSTed back to back per burst
	pollEvery      = 5 * time.Millisecond // status poll cadence over the outstanding ids
	queueWorkers   = 2
	// claimPoll is the daemon's idle claim-retry interval. Every round
	// starts on idle claim loops; at the default 250 ms the wait for their
	// next tick would be a quarter of a round, and it is a sleep, which the
	// host's speed does not scale. At 10 ms the two idle loops, each reading
	// the whole store per try, slowed the host clock's samples by a third.
	claimPoll = 50 * time.Millisecond
	// roundsPerStore rounds share one job store, then the daemon is
	// restarted over an empty one. The store keeps every finished job and
	// Claim, Stats and List read all of them, so a job costs more the more
	// jobs the store holds (a burst took 350 ms on an empty store and
	// 500 ms on one of 450 jobs). A pass that let one store grow for as
	// long as it ran would measure a faster host on a larger store.
	roundsPerStore = 8
	// roundSamples samples of the host's speed are taken before every round.
	roundSamples = 3
)

// service is a live insipsd in the harness: server.New over a fresh
// jobstore and journal dir, served by http.Server on a loopback
// listener.
type service struct {
	dir   string // store and journals live under it
	store *jobstore.Store
	srv   *server.Server
	hs    *http.Server
	base  string
	done  chan error // Serve's return
}

// startService boots the daemon under dir and returns once /healthz
// answers 200.
func startService(p *problem, dir string) (*service, error) {
	store, err := jobstore.Open(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		Proteins:     p.pr.Proteins,
		Graph:        p.pr.Graph,
		Engines:      []*pipe.Engine{p.eng},
		Store:        store,
		JournalDir:   filepath.Join(dir, "runs"),
		QueueWorkers: queueWorkers,
		PollInterval: claimPoll,
	})
	if err != nil {
		_ = store.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = store.Close()
		return nil, err
	}
	s := &service{
		dir:   dir,
		store: store,
		srv:   srv,
		hs:    &http.Server{Handler: srv.Handler()},
		base:  "http://" + ln.Addr().String(),
		done:  make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	c := newAPIClient(s.base)
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, _, err := c.do(http.MethodGet, "/healthz", nil, nil)
		if err == nil && status == http.StatusOK {
			return s, nil
		}
		if time.Now().After(deadline) {
			_ = s.stop()
			return nil, fmt.Errorf("insipsd: /healthz not 200 after 30s (status %d, err %v)", status, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the HTTP server down, drains the job subsystem (claim
// loops and renewers exit) and closes the store.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	if derr := s.srv.Drain(ctx); err == nil {
		err = derr
	}
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// apiClient is one keep-alive HTTP client connection to the daemon.
type apiClient struct {
	base string
	hc   *http.Client
}

func newAPIClient(base string) *apiClient {
	return &apiClient{base: base, hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1},
	}}
}

func (c *apiClient) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a JSON reply into out (when non-nil
// and the status is 2xx). dur is the full round trip including reading
// the body.
func (c *apiClient) do(method, path string, body, out any) (status int, dur time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, 0, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, time.Since(t0), err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	dur = time.Since(t0)
	if err != nil {
		return resp.StatusCode, dur, err
	}
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, dur, fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
		}
	}
	return resp.StatusCode, dur, nil
}

// jobTimes is what a client observed of one job.
type jobTimes struct {
	posted     time.Time
	terminalAt time.Time
	polls      int
	final      server.JobJSON
}

// interval is one timed stretch of a pass and the jobs done in it.
type interval struct {
	from, to time.Time
	jobs     int
}

// burstSamples collects what the clients measured; they share one.
type burstSamples struct {
	mu                              sync.Mutex
	jobMS, submitMS, getMS, scoreMS []float64
	claimWaitMS, runMS, finishLagMS []float64
	bursts                          []interval     // one client's burst: first POST sent to last job seen terminal
	rounds                          []interval     // every client's burst at once: first POST sent to last /v1/score answered
	polls, http429                  int            // status polls of finished jobs; 429 replies
	lastJob                         server.JobJSON // the last job seen done
}

// add appends one sample to a series of b.
func (b *burstSamples) add(series *[]float64, v float64) {
	b.mu.Lock()
	*series = append(*series, v)
	b.mu.Unlock()
}

// burstClient is one closed-loop client.
type burstClient struct {
	api     *apiClient
	p       *problem
	shape   designShape
	id      int
	seed    int64
	nextJob int
	o       *outcome
	tr      *tracer
}

// s40NonTargetNames are the explicit non_targets of every S40 job.
func s40NonTargetNames(p *problem) []string {
	nts := make([]string, s40NonTargets)
	for i := range nts {
		nts[i] = p.name(p.nonTargets[i])
	}
	return nts
}

func (bc *burstClient) request() server.DesignRequest {
	bc.nextJob++
	return server.DesignRequest{
		Target:         bc.p.name(bc.p.target),
		NonTargets:     s40NonTargetNames(bc.p),
		Population:     bc.shape.population,
		SeqLen:         bc.shape.seqLen,
		MinGenerations: bc.shape.generations,
		MaxGenerations: bc.shape.generations,
		Workers:        bc.shape.workers,
		Threads:        1,
		// Unique per job across clients, bursts and harness seeds.
		Seed: bc.seed*1_000_000 + int64(bc.id)*100_000 + int64(bc.nextJob),
	}
}

// burst runs one closed-loop burst: POST burstJobs jobs, poll the
// outstanding ids until all are terminal, then score the last job's
// sequence. Each job is one attempted operation; done is how many
// ended as they should.
func (bc *burstClient) burst(s *burstSamples) (done int) {
	op := bc.id*1_000_000 + bc.nextJob + 1
	root := bc.tr.start("service.burst", rootLayer, op, 0)
	defer bc.tr.end(root)
	begin := time.Now()

	jobs := make(map[string]*jobTimes, burstJobs)
	var order []string
	for k := 0; k < burstJobs; k++ {
		bc.o.attempt()
		req := bc.request()
		var created server.JobJSON
		posted := time.Now()
		sp := bc.tr.start("POST /v1/designs", "server", op, root)
		status, dur, err := bc.api.do(http.MethodPost, "/v1/designs", req, &created)
		bc.tr.end(sp)
		if status == http.StatusTooManyRequests {
			s.mu.Lock()
			s.http429++
			s.mu.Unlock()
		}
		if err != nil || status/100 != 2 {
			bc.o.fail("POST /v1/designs seed %d: status %d, err %v", req.Seed, status, err)
			continue
		}
		s.add(&s.submitMS, ms(dur))
		jobs[created.ID] = &jobTimes{posted: posted}
		order = append(order, created.ID)
	}

	outstanding := append([]string(nil), order...)
	giveUp := time.Now().Add(60 * time.Second)
	for len(outstanding) > 0 {
		time.Sleep(pollEvery)
		still := outstanding[:0]
		for _, id := range outstanding {
			jt := jobs[id]
			var js server.JobJSON
			sp := bc.tr.start("GET /v1/designs/{id}", "server", op, root)
			status, dur, err := bc.api.do(http.MethodGet, "/v1/designs/"+id, nil, &js)
			bc.tr.end(sp)
			jt.polls++
			if err != nil || status/100 != 2 {
				bc.o.fail("GET /v1/designs/%s: status %d, err %v", id, status, err)
				continue
			}
			s.add(&s.getMS, ms(dur))
			if !js.State.Terminal() {
				still = append(still, id)
				continue
			}
			jt.terminalAt = time.Now()
			jt.final = js
		}
		outstanding = still
		if time.Now().After(giveUp) {
			for _, id := range outstanding {
				bc.o.fail("job %s: not terminal after 60s", id)
			}
			break
		}
	}

	allDone := time.Now()

	// last is the burst's last job that produced a design. An S40 job is
	// short enough that some end with best fitness 0 and no sequence;
	// those are still correct jobs (done, all generations run).
	var last *jobTimes
	for _, id := range order {
		jt := jobs[id]
		if jt.terminalAt.IsZero() {
			continue
		}
		js := jt.final
		if js.State != server.JobDone || js.Generations != bc.shape.generations {
			bc.o.fail("job %s: state %s, error %q, generations %d", id, js.State, js.Error, js.Generations)
			continue
		}
		if js.Best != nil && js.Sequence != "" {
			last = jt
		}
		s.mu.Lock()
		s.lastJob = js
		s.polls += jt.polls
		s.mu.Unlock()
		done++
		s.add(&s.jobMS, ms(jt.terminalAt.Sub(jt.posted)))
		if js.Started != nil && js.Finished != nil {
			s.add(&s.claimWaitMS, ms(js.Started.Sub(js.Created)))
			s.add(&s.runMS, ms(js.Finished.Sub(*js.Started)))
			s.add(&s.finishLagMS, ms(jt.terminalAt.Sub(*js.Finished)))
			bc.tr.add("job.claim_wait", "jobstore", op, root, jt.posted, *js.Started)
			bc.tr.add("job.run", "core", op, root, *js.Started, *js.Finished)
			bc.tr.add("job.finish_lag", "server", op, root, *js.Finished, jt.terminalAt)
		}
	}
	if done == burstJobs {
		s.mu.Lock()
		s.bursts = append(s.bursts, interval{begin, allDone, done})
		s.mu.Unlock()
	}
	if last == nil {
		return done
	}

	// The read beside the writes: score the last design against the
	// job's own target and non-targets. The target score must equal the
	// job's best.target bit for bit (same engine, same kernel).
	against := append([]string{last.final.Target}, s40NonTargetNames(bc.p)...)
	var scored server.ScoreResponse
	sp := bc.tr.start("POST /v1/score", "server", op, root)
	status, dur, err := bc.api.do(http.MethodPost, "/v1/score", server.ScoreRequest{
		Query:   &server.SequenceJSON{Name: "design", Residues: last.final.Sequence},
		Against: against,
		Threads: 1,
	}, &scored)
	bc.tr.end(sp)
	bc.o.attempt()
	switch {
	case err != nil || status/100 != 2:
		bc.o.fail("POST /v1/score: status %d, err %v", status, err)
	case len(scored.Scores) != len(against):
		bc.o.fail("POST /v1/score: %d scores for %d proteins", len(scored.Scores), len(against))
	case math.Float64bits(scored.Scores[0].Score) != math.Float64bits(last.final.Best.Target):
		bc.o.fail("POST /v1/score: target score %v != job %s best.target %v", scored.Scores[0].Score, last.final.ID, last.final.Best.Target)
	default:
		s.add(&s.scoreMS, ms(dur))
	}
	return done
}

// serviceHost is the daemon under test across its restarts.
type serviceHost struct {
	p      *problem
	root   string // every daemon's directory is made under it
	booted int
	rounds int      // rounds the running daemon's store has served
	cur    *service // nil once stopped
}

// restart stops the running daemon, removes what it wrote and boots a
// new one over an empty store.
func (h *serviceHost) restart() error {
	if err := h.stop(); err != nil {
		return err
	}
	s, err := startService(h.p, filepath.Join(h.root, fmt.Sprintf("daemon%d", h.booted)))
	if err != nil {
		return err
	}
	h.booted++
	h.cur, h.rounds = s, 0
	return nil
}

// stop stops the running daemon, if any, and removes what it wrote.
func (h *serviceHost) stop() error {
	if h.cur == nil {
		return nil
	}
	s := h.cur
	h.cur = nil
	if err := s.stop(); err != nil {
		return fmt.Errorf("stopping insipsd: %w", err)
	}
	return os.RemoveAll(s.dir)
}

// runRounds drives serviceClients closed-loop clients in rounds. In a
// round every client runs one burst, all at once, and the round ends
// when the last has its /v1/score answer. Between rounds the daemon is
// idle: that is when the host's speed is sampled (clock may be nil) and
// when, every roundsPerStore rounds, the daemon is restarted over an
// empty store. warm rounds are discarded, then rounds run until the
// clock passes d (at least one).
func (h *serviceHost) runRounds(shape designShape, seed int64, warm int, d time.Duration, clock *hostClock, o *outcome, tr *tracer) (*burstSamples, error) {
	clients := make([]*burstClient, serviceClients)
	for i := range clients {
		clients[i] = &burstClient{api: newAPIClient(h.cur.base), p: h.p, shape: shape, id: i, seed: seed, o: o}
	}
	defer func() {
		for _, bc := range clients {
			bc.api.close()
		}
	}()
	round := func(s *burstSamples) error {
		if h.rounds == roundsPerStore {
			if err := h.restart(); err != nil {
				return err
			}
			for _, bc := range clients {
				bc.api.close()
				bc.api = newAPIClient(h.cur.base)
			}
		}
		h.rounds++
		clock.settle()
		clock.sample(roundSamples)
		var wg sync.WaitGroup
		var jobs atomic.Int64
		from := time.Now()
		for _, bc := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				jobs.Add(int64(bc.burst(s)))
			}()
		}
		wg.Wait()
		s.rounds = append(s.rounds, interval{from, time.Now(), int(jobs.Load())})
		return nil
	}
	var discard burstSamples
	for r := 0; r < warm; r++ {
		if err := round(&discard); err != nil {
			return nil, err
		}
	}
	samples := &burstSamples{}
	for _, bc := range clients {
		bc.tr = tr
	}
	for t0 := time.Now(); ; {
		if err := round(samples); err != nil {
			return nil, err
		}
		if time.Since(t0) >= d {
			break
		}
	}
	clock.sample(roundSamples)
	return samples, nil
}

// scrapeMetrics reads GET /metrics into name{labels} -> value.
func scrapeMetrics(c *apiClient) (map[string]float64, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}
