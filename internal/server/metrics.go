package server

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/pipe"
)

// metrics aggregates the service's operational counters: per-route
// request counts and latency, and job-queue accounting. Queue depth and
// jobs-by-state are computed at render time from the job store (they
// are gauges, not counters).
type metrics struct {
	start time.Time

	jobsAccepted atomic.Int64
	jobsRejected atomic.Int64 // queue-full 429s

	// Multi-tenant admission and replica lease accounting.
	rateLimited       atomic.Int64 // token-bucket 429s
	admissionRejected atomic.Int64 // per-tenant active-job-cap 429s
	authFailed        atomic.Int64 // 401s (missing or unknown API key)
	jobsRecovered     atomic.Int64 // orphaned jobs re-attached from the store
	leasesLost        atomic.Int64 // local runs abandoned to a re-attaching peer
	jobsReleased      atomic.Int64 // running jobs handed back to the store on drain

	// invariantViolations counts generation records that broke the
	// candidate conservation identity, counted as each generation is
	// recorded (the job's OnJournalRecord hook).
	invariantViolations atomic.Int64

	mu     sync.Mutex
	routes map[string]*routeStats
}

type routeStats struct {
	count   atomic.Int64
	errors  atomic.Int64 // responses with status >= 400
	nanosum atomic.Int64 // total handler latency
}

func newMetrics() *metrics {
	return &metrics{start: time.Now(), routes: make(map[string]*routeStats)}
}

func (m *metrics) route(name string) *routeStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs, ok := m.routes[name]
	if !ok {
		rs = &routeStats{}
		m.routes[name] = rs
	}
	return rs
}

// observe records one served request on a route.
func (rs *routeStats) observe(status int, elapsed time.Duration) {
	rs.count.Add(1)
	rs.nanosum.Add(int64(elapsed))
	if status >= 400 {
		rs.errors.Add(1)
	}
}

// statusRecorder captures the status code a handler writes so the
// instrumentation middleware can count errors.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so streaming handlers (SSE) keep
// working behind the instrumentation middleware.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with per-route request counting and latency
// accumulation.
func (m *metrics) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	rs := m.route(name)
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		begin := time.Now()
		h(rec, r)
		rs.observe(rec.status, time.Since(begin))
	}
}

// gauges is the point-in-time state the job store contributes to the
// metrics page.
type gauges struct {
	QueueDepth  int // jobs accepted but not yet running (store-wide)
	Running     int // jobs currently executing on this replica
	JobsByState map[JobState]int
	Draining    bool
	// Non-terminal jobs per tenant (store-wide) and lifetime fair-share
	// serve counts.
	ActiveByTenant map[string]int
	ServedByTenant map[string]float64
}

// render writes the Prometheus text exposition format. The fitness-cache
// block is the shared cache's own, and the window-table and delta
// counters are the engine's: the candidate preprocessing of every job
// this process ran.
func (m *metrics) render(w http.ResponseWriter, g gauges, fit *core.FitnessCache, engine *pipe.Engine) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	p := func(format string, args ...any) { fmt.Fprintf(w, format+"\n", args...) }

	p("# HELP insipsd_uptime_seconds Time since the service started.")
	p("insipsd_uptime_seconds %.3f", time.Since(m.start).Seconds())

	p("# HELP insipsd_queue_depth Design jobs accepted and waiting for a worker.")
	p("insipsd_queue_depth %d", g.QueueDepth)
	p("# HELP insipsd_jobs_running Design jobs currently executing.")
	p("insipsd_jobs_running %d", g.Running)
	p("# HELP insipsd_jobs Jobs in the store by state.")
	states := make([]string, 0, len(g.JobsByState))
	for st := range g.JobsByState {
		states = append(states, string(st))
	}
	sort.Strings(states)
	for _, st := range states {
		p("insipsd_jobs{state=%q} %d", st, g.JobsByState[JobState(st)])
	}
	p("# HELP insipsd_jobs_accepted_total Design jobs admitted to the queue.")
	p("insipsd_jobs_accepted_total %d", m.jobsAccepted.Load())
	p("# HELP insipsd_jobs_rejected_total Design jobs rejected with 429 (queue full or draining).")
	p("insipsd_jobs_rejected_total %d", m.jobsRejected.Load())

	p("# HELP insipsd_rate_limited_total Requests rejected by a tenant token bucket (429).")
	p("insipsd_rate_limited_total %d", m.rateLimited.Load())
	p("# HELP insipsd_admission_rejected_total Design jobs rejected by a tenant's active-job cap (429).")
	p("insipsd_admission_rejected_total %d", m.admissionRejected.Load())
	p("# HELP insipsd_auth_failed_total Requests rejected for a missing or unknown API key (401).")
	p("insipsd_auth_failed_total %d", m.authFailed.Load())
	p("# HELP insipsd_jobs_recovered_total Orphaned jobs this replica re-attached from the shared store.")
	p("insipsd_jobs_recovered_total %d", m.jobsRecovered.Load())
	p("# HELP insipsd_leases_lost_total Local runs abandoned after a peer re-attached the job.")
	p("insipsd_leases_lost_total %d", m.leasesLost.Load())
	p("# HELP insipsd_jobs_released_total Running jobs handed back to the shared store on drain.")
	p("insipsd_jobs_released_total %d", m.jobsReleased.Load())
	p("# HELP insipsd_invariant_violations_total Job generations whose candidate accounting broke the conservation identity, counted as each generation is recorded (journaled all the same).")
	p("insipsd_invariant_violations_total %d", m.invariantViolations.Load())
	tenants := make([]string, 0, len(g.ActiveByTenant))
	for name := range g.ActiveByTenant {
		tenants = append(tenants, name)
	}
	sort.Strings(tenants)
	p("# HELP insipsd_tenant_active_jobs Non-terminal jobs per tenant in the store.")
	for _, name := range tenants {
		p("insipsd_tenant_active_jobs{tenant=%q} %d", name, g.ActiveByTenant[name])
	}
	tenants = tenants[:0]
	for name := range g.ServedByTenant {
		tenants = append(tenants, name)
	}
	sort.Strings(tenants)
	p("# HELP insipsd_tenant_jobs_served_total Jobs claimed per tenant (fair-share accounting).")
	for _, name := range tenants {
		p("insipsd_tenant_jobs_served_total{tenant=%q} %.0f", name, g.ServedByTenant[name])
	}

	fit.WritePrometheus(w, "insipsd_fitness_cache")

	wc := engine.WindowCacheStats()
	deltas, _ := engine.DeltaStats()
	p("# HELP insipsd_window_table_hits_total Window-similarity lookups of natural window content during candidate preprocessing (the first for a window searches it and fills the table, the rest read the table).")
	p("insipsd_window_table_hits_total %d", wc.Hits)
	p("# HELP insipsd_window_table_misses_total Window-similarity lookups of content no natural window has, each searched.")
	p("insipsd_window_table_misses_total %d", wc.Misses)
	p("# HELP insipsd_delta_queries_total Candidates preprocessed incrementally from a retained parent query.")
	p("insipsd_delta_queries_total %d", deltas)

	m.mu.Lock()
	names := make([]string, 0, len(m.routes))
	for name := range m.routes {
		names = append(names, name)
	}
	sort.Strings(names)
	routes := make(map[string]*routeStats, len(names))
	for _, name := range names {
		routes[name] = m.routes[name]
	}
	m.mu.Unlock()
	p("# HELP insipsd_http_requests_total Requests served, by route.")
	for _, name := range names {
		p("insipsd_http_requests_total{route=%q} %d", name, routes[name].count.Load())
	}
	p("# HELP insipsd_http_request_errors_total Responses with status >= 400, by route.")
	for _, name := range names {
		p("insipsd_http_request_errors_total{route=%q} %d", name, routes[name].errors.Load())
	}
	p("# HELP insipsd_http_request_seconds_sum Total handler latency, by route.")
	for _, name := range names {
		p("insipsd_http_request_seconds_sum{route=%q} %.6f",
			name, time.Duration(routes[name].nanosum.Load()).Seconds())
	}
}
