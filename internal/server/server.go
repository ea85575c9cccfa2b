// Package server is scgd's engine: a stdlib-only concurrent topology-query
// service over the paper's network families. Solving the ball-arrangement
// game *is* routing in a super Cayley network (§2–§3), so the service
// answers the query workload a fabric controller issues — route lookup,
// neighbor enumeration, degree/diameter/cost metrics, exact distance
// profiles — from long-lived state instead of one-shot CLI runs.
//
// Three layers sit under the HTTP endpoints:
//
//   - Cache: a byte-budgeted LRU of materialized topologies and exact BFS
//     distance tables keyed by (family, l, n), with singleflight request
//     coalescing — N concurrent cold requests trigger exactly one build.
//   - Admission control: per-endpoint concurrency gates (pool.Gate) that
//     shed load with 503 instead of queueing, plus a per-request deadline
//     on any wait for a cold build.
//   - Jobs: a k!-state exact profile runs on the request that submits it,
//     which answers with the result, behind a gate of build slots
//     (pool.Gate) that bounds how many builds run at once; a submit waits
//     for a slot, or for the running job of its key, under its request
//     deadline. Every job keeps an ID that ?id= polls read from the
//     finished-job ledger. Store write-backs run on a bounded pool.Runner
//     after the job is done. The package contains no raw go statements —
//     all concurrency routes through internal/pool, including Run's
//     connection loops (conn.go).
//
// Telemetry (internal/telemetry) threads through all of it: every request
// gets an X-Request-Id (generated or propagated) that stamps access-log
// records and job snapshots; with a slow log configured, a pooled
// span timeline follows the request through admission → decode → cache →
// build → solve → encode and feeds that NDJSON log; and one static metrics
// registry backs both /statsz (JSON snapshot) and /metricsz (Prometheus
// text exposition), so the two surfaces can never disagree. A
// runtime/metrics sampler adds heap/GC/goroutine/scheduler gauges on a
// fixed interval.
package server

import (
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"time"

	"repro/internal/pool"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Config tunes one Server. The zero value is usable: every field has a
// production default.
type Config struct {
	// CacheBytes budgets the topology/profile LRU (default 256 MiB).
	CacheBytes int64
	// MaxInflight caps concurrent requests per gated endpoint; excess
	// requests are shed with 503 (default 64).
	MaxInflight int
	// ProfileWorkers is the number of exact-profile builds that may run at
	// once, and of store write-back workers (default GOMAXPROCS). A submit
	// past them waits for a slot under its request deadline.
	ProfileWorkers int
	// RequestTimeout bounds how long a request may wait on a cold build,
	// a build slot or a running profile job, counted from request start;
	// past it the request answers 504 (default 10s). Warm requests never
	// wait and never consult it.
	RequestTimeout time.Duration
	// MaxK caps the label length a request may materialize; k! must fit in
	// int64, so the hard ceiling (and default) is 20.
	MaxK int
	// AccessLog, when non-nil, receives one NDJSON AccessRecord per request.
	AccessLog io.Writer
	// SlowLog, when non-nil, receives one NDJSON SlowRecord (request ID,
	// status, per-phase span timeline) for every request at least
	// SlowThreshold slow, and for every profile job's build and store
	// write-back. It is the span timelines' only reader: without it no
	// request or job stamps one.
	SlowLog io.Writer
	// SlowThreshold is the slow-log latency floor. Zero logs every request
	// when SlowLog is set (useful for tracing a reproduction); it has no
	// effect when SlowLog is nil.
	SlowThreshold time.Duration
	// SampleInterval is the runtime/metrics sampler period (default 10s;
	// negative disables the sampler).
	SampleInterval time.Duration
	// Store, when non-nil, is the persistent content-addressed profile
	// store (scgd -store=DIR): profile builds consult it before running
	// BFS, and a job writes back the profile it built once it is done, so
	// a restarted daemon — or a replica shipped a pre-baked directory —
	// warm-starts instead of recomputing.
	Store *store.Store
}

// maxRepresentableK is the largest k with k! representable in int64.
const maxRepresentableK = 20

func (c Config) withDefaults() Config {
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.ProfileWorkers <= 0 {
		c.ProfileWorkers = runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxK <= 0 || c.MaxK > maxRepresentableK {
		c.MaxK = maxRepresentableK
	}
	if c.SampleInterval == 0 {
		c.SampleInterval = 10 * time.Second
	}
	return c
}

// endpoint is one registered path: its handler, its admission gate (nil
// when ungated) and its instrumentation. The counters and the latency
// histogram are telemetry-registry instruments — /statsz snapshots and
// /metricsz exposition read the same atomics, which is what guarantees the
// two surfaces agree for identical traffic.
type endpoint struct {
	name     string
	fn       func(w http.ResponseWriter, r *http.Request, c call) int
	gate     *pool.Gate
	requests *telemetry.Counter
	errors   *telemetry.Counter
	rejected *telemetry.Counter
	lat      *telemetry.Histogram
}

func (e *endpoint) observe(status int, d time.Duration) {
	e.requests.Inc()
	if status >= 400 {
		e.errors.Inc()
	}
	e.lat.Observe(d.Microseconds())
}

func (e *endpoint) reject() {
	e.requests.Inc()
	e.errors.Inc()
	e.rejected.Inc()
}

func (e *endpoint) snapshot() EndpointStats {
	return EndpointStats{
		Requests: e.requests.Value(),
		Errors:   e.errors.Value(),
		Rejected: e.rejected.Value(),
		Latency:  e.lat.Summary(),
	}
}

// Server wires the cache, the job manager, admission control, telemetry,
// and the handlers into one http.Handler.
type Server struct {
	cfg     Config
	cache   *Cache
	jobs    *Jobs
	access  *accessLog
	slow    *slowLog
	reg     *telemetry.Registry
	sampler *telemetry.Sampler
	slowCnt *telemetry.Counter
	start   time.Time
	// eps is ServeHTTP's dispatch table, in registration order (the
	// route endpoint first); mux holds the same endpoints for every
	// request the table does not take.
	eps []*endpoint
	mux *http.ServeMux
}

// New builds a Server from cfg (zero value = defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		cache:  NewCache(cfg.CacheBytes),
		access: newAccessLog(cfg.AccessLog),
		slow:   newSlowLog(cfg.SlowLog),
		reg:    telemetry.NewRegistry(),
		start:  time.Now(),
		mux:    http.NewServeMux(),
	}
	if cfg.Store != nil {
		s.cache.SetStore(cfg.Store)
	}
	s.jobs = NewJobs(s.cache, cfg.ProfileWorkers)
	if s.slow != nil {
		s.jobs.slow = s.logSlowJob
	}

	s.route("/v1/route", true, s.handleRoute)
	s.route("/v1/neighbors", true, s.handleNeighbors)
	s.route("/v1/metrics", true, s.handleMetrics)
	s.route("/v1/profile", true, s.handleProfile)
	s.route("/healthz", false, s.handleHealthz)
	s.route("/statsz", false, s.handleStatsz)
	s.route("/metricsz", false, s.handleMetricsz)

	s.registerTelemetry()
	if cfg.SampleInterval > 0 {
		s.sampler = telemetry.NewSampler(s.reg, cfg.SampleInterval)
		s.sampler.Start()
	}
	return s
}

// registerTelemetry installs the non-endpoint metric families: cache and
// job counters/gauges (scrape-time reads of the same mutex-guarded stats
// /statsz reports), uptime, and the slow-request counter. Every family and
// label is a compile-time constant — scglint's telemetrylabel analyzer
// keeps the registry's cardinality static.
func (s *Server) registerTelemetry() {
	s.slowCnt = s.reg.Counter("scgd_slow_requests_total",
		"Slow-log lines emitted: requests (and job builds) at least -slow-ms slow.")
	s.reg.GaugeFunc("scgd_uptime_seconds", "Seconds since server start.",
		func() float64 { return time.Since(s.start).Seconds() })

	cache := func(read func(CacheStats) int64) func() int64 {
		return func() int64 { return read(s.cache.Stats()) }
	}
	s.reg.CounterFunc("scgd_cache_hits_total", "Cache lookups answered from residency.",
		cache(func(st CacheStats) int64 { return st.Hits }))
	s.reg.CounterFunc("scgd_cache_misses_total", "Cache lookups that triggered or joined a build.",
		cache(func(st CacheStats) int64 { return st.Misses }))
	s.reg.CounterFunc("scgd_cache_builds_total", "Topology/profile builds executed.",
		cache(func(st CacheStats) int64 { return st.Builds }))
	s.reg.CounterFunc("scgd_cache_coalesced_total", "Lookups that waited on another request's build.",
		cache(func(st CacheStats) int64 { return st.Coalesced }))
	s.reg.CounterFunc("scgd_cache_evictions_total", "LRU evictions under byte pressure.",
		cache(func(st CacheStats) int64 { return st.Evictions }))
	s.reg.CounterFunc("scgd_cache_oversize_total", "Built values too large to cache.",
		cache(func(st CacheStats) int64 { return st.Oversize }))
	s.reg.GaugeFunc("scgd_cache_entries", "Resident cache entries.",
		func() float64 { return float64(s.cache.Stats().Entries) })
	s.reg.GaugeFunc("scgd_cache_bytes_used", "Estimated resident bytes.",
		func() float64 { return float64(s.cache.Stats().BytesUsed) })
	s.reg.GaugeFunc("scgd_cache_bytes_budget", "Cache byte budget.",
		func() float64 { return float64(s.cache.Stats().BytesBudget) })

	jobs := func(read func(JobsStats) int64) func() int64 {
		return func() int64 { return read(s.jobs.Stats()) }
	}
	s.reg.CounterFunc("scgd_jobs_submitted_total", "Exact-profile jobs admitted.",
		jobs(func(st JobsStats) int64 { return st.Submitted }))
	s.reg.CounterFunc("scgd_jobs_coalesced_total", "Submits coalesced onto an in-flight job.",
		jobs(func(st JobsStats) int64 { return st.Coalesced }))
	s.reg.CounterFunc("scgd_jobs_completed_total", "Jobs finished successfully.",
		jobs(func(st JobsStats) int64 { return st.Completed }))
	s.reg.CounterFunc("scgd_jobs_failed_total", "Jobs that ended in error.",
		jobs(func(st JobsStats) int64 { return st.Failed }))
	s.reg.GaugeFunc("scgd_jobs_running", "Jobs executing now, one per held build slot.",
		func() float64 { return float64(s.jobs.Stats().Running) })

	// Persistent-store traffic, present only when -store is configured (so
	// a storeless deployment's exposition is unchanged).
	if st := s.cfg.Store; st != nil {
		sc := st.Stats()
		s.reg.CounterFunc("scgd_store_hits_total", "Store entries loaded and validated.",
			func() int64 { return sc.Hits.Load() })
		s.reg.CounterFunc("scgd_store_misses_total", "Store probes with no usable entry.",
			func() int64 { return sc.Misses.Load() })
		s.reg.CounterFunc("scgd_store_read_errors_total", "Store probes whose entry could not be read (not a miss: the disk or the entry's path is failing).",
			func() int64 { return sc.ReadErrors.Load() })
		s.reg.CounterFunc("scgd_store_writes_total", "Entries written back after a build.",
			func() int64 { return sc.Writes.Load() })
		s.reg.CounterFunc("scgd_store_writeback_skipped_total", "Write-backs of built profiles shed by a full write-back queue.",
			jobs(func(st JobsStats) int64 { return st.WriteBacksSkipped }))
		s.reg.CounterFunc("scgd_store_write_errors_total", "Failed write-backs.",
			func() int64 { return sc.WriteErrors.Load() })
		s.reg.CounterFunc("scgd_store_corrupt_total", "Entries quarantined as corrupt or stale-schema.",
			func() int64 { return sc.Corrupt.Load() })
		s.reg.CounterFunc("scgd_store_bytes_read_total", "Bytes of validated entries loaded.",
			func() int64 { return sc.BytesRead.Load() })
		s.reg.CounterFunc("scgd_store_bytes_written_total", "Bytes written back.",
			func() int64 { return sc.BytesWritten.Load() })
	}
}

// Handler returns the root http.Handler: the Server itself.
func (s *Server) Handler() http.Handler { return s }

// ServeHTTP dispatches r. A request whose path is one of the registered
// paths, spelled exactly (no escapes), goes straight to that endpoint:
// http.ServeMux would clean the path, find it unchanged, match it exactly
// and call the same endpoint, so only the pattern walk is skipped. A
// CONNECT, whose path ServeMux leaves uncleaned, and every other path go
// through the mux, which keeps its redirects, 404s and the answer to "*".
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.RawPath == "" && r.Method != http.MethodConnect {
		for _, ep := range s.eps {
			if ep.name == r.URL.Path {
				s.serve(ep, w, r)
				return
			}
		}
	}
	s.mux.ServeHTTP(w, r)
}

// Registry exposes the metrics registry (scrape it with WritePrometheus).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Close stops the runtime sampler and blocks until every pending store
// write-back has finished. In-flight HTTP requests, and the profile jobs
// they run, are drained by Run's shutdown; Close handles the work that
// outlives its submitting request.
func (s *Server) Close() {
	if s.sampler != nil {
		s.sampler.Stop()
	}
	s.jobs.Close()
}

// Stats assembles the /statsz document.
func (s *Server) Stats() StatsResponse {
	eps := make(map[string]EndpointStats, len(s.eps))
	for _, ep := range s.eps {
		eps[ep.name] = ep.snapshot()
	}
	resp := StatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Goroutines:    runtime.NumGoroutine(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		SlowRequests:  s.slowCnt.Value(),
		Endpoints:     eps,
		Cache:         s.cache.Stats(),
		Jobs:          s.jobs.Stats(),
	}
	if st := s.cfg.Store; st != nil {
		snap := st.Snapshot()
		resp.Store = &snap
	}
	return resp
}

// call is what the middleware hands a handler beside the request: the
// request ID it issued or accepted, the span timeline (nil without a slow
// log), and the deadline for a wait on a cold build. Passing these by
// value replaces a context derived per request (context.WithTimeout,
// telemetry.WithTrace, r.WithContext), which allocated on every request
// although only a cold build ever waits; network derives one then.
type call struct {
	id       string
	tr       *telemetry.Trace
	deadline time.Time
}

// route registers a handler with the shared middleware (serve), in the
// dispatch table and in the mux.
func (s *Server) route(name string, gated bool, fn func(w http.ResponseWriter, r *http.Request, c call) int) {
	ep := &endpoint{
		name:     name,
		fn:       fn,
		requests: s.reg.Counter("scgd_http_requests_total", "Requests received per endpoint.", telemetry.Label{Key: "endpoint", Value: name}),
		errors:   s.reg.Counter("scgd_http_errors_total", "Requests answered with status >= 400.", telemetry.Label{Key: "endpoint", Value: name}),
		rejected: s.reg.Counter("scgd_http_rejected_total", "Requests shed by the admission gate (503).", telemetry.Label{Key: "endpoint", Value: name}),
		lat:      s.reg.Histogram("scgd_http_request_duration_us", "Request service time in microseconds.", telemetry.Label{Key: "endpoint", Value: name}),
	}
	if gated {
		ep.gate = pool.NewGate(s.cfg.MaxInflight)
	}
	s.eps = append(s.eps, ep)
	s.mux.HandleFunc(name, func(w http.ResponseWriter, r *http.Request) { s.serve(ep, w, r) })
}

// serve is the shared middleware: request-ID issuance, the span timeline
// (only for the slow log, its one reader), admission gate (when gated),
// request deadline, metrics, access record, and the slow-log decision.
func (s *Server) serve(ep *endpoint, w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	// The name is canonical already, so the header maps are indexed
	// directly, with Header.Get's and Header.Set's semantics.
	reqID := ""
	if v := r.Header["X-Request-Id"]; len(v) > 0 {
		reqID = v[0]
	}
	if !telemetry.ValidRequestID(reqID) {
		reqID = telemetry.NewRequestID()
	}
	w.Header()["X-Request-Id"] = []string{reqID}
	var tr *telemetry.Trace
	if s.slow != nil {
		tr = acquireTrace(reqID, start)
		defer tr.Release()
		tr.Phase("admission")
	}
	if ep.gate != nil && !ep.gate.TryEnter() {
		ep.reject()
		writeJSON(w, http.StatusServiceUnavailable,
			ErrorResponse{Error: "server busy: too many in-flight " + ep.name + " requests"})
		s.access.log(r, ep.name, http.StatusServiceUnavailable, start, time.Since(start), reqID)
		return
	}
	if ep.gate != nil {
		defer ep.gate.Leave()
	}
	status := ep.fn(w, r, call{id: reqID, tr: tr, deadline: start.Add(s.cfg.RequestTimeout)})
	d := time.Since(start)
	ep.observe(status, d)
	s.access.log(r, ep.name, status, start, d, reqID)
	if s.slow != nil && d >= s.cfg.SlowThreshold {
		s.slowCnt.Inc()
		s.slow.log(reqID, ep.name, r.Method, status, start, d, tr.Spans())
	}
}

// acquireTrace is telemetry.AcquireTrace, the one place the server and
// its jobs take a span timeline; tests swap it to count them.
var acquireTrace = telemetry.AcquireTrace

// logSlowJob emits a slow-log line for a profile job's build or its store
// write-back (the Jobs manager calls it from whichever goroutine ran the
// work; reqID is the submitting request's ID, so a submit joins its build
// and write-back in the log).
func (s *Server) logSlowJob(endpoint, reqID string, start time.Time, d time.Duration, spans []telemetry.PhaseSpan) {
	if d < s.cfg.SlowThreshold {
		return
	}
	s.slowCnt.Inc()
	s.slow.log(reqID, endpoint, "", 0, start, d, spans)
}

// jsonContentType is the Content-Type value of every JSON answer. Handlers
// install it by map assignment instead of Header.Set, which would allocate
// a one-element slice per request. Sharing one slice is safe: Run's
// connections, net/http and httptest only read a handler's header values,
// and nothing here writes through it.
var jsonContentType = []string{"application/json"}

// writeBody sends an already encoded JSON document with the given status
// and returns the status for the middleware's bookkeeping.
func writeBody(w http.ResponseWriter, status int, body []byte) int {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(body)
	return status
}

// writeJSON writes v with the given status through encoding/json. Only
// error bodies, /healthz and /statsz take this reflective path; the v1
// answers use the append encoders in encode.go, which TestV1BodyParity
// pins to this function's output. Encoding failures are swallowed: by the
// time Encode runs the status line is committed, and every payload type
// here marshals by construction.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeErr writes a JSON error payload and returns the status for the
// middleware's bookkeeping.
func writeErr(w http.ResponseWriter, status int, msg string) int {
	writeJSON(w, status, ErrorResponse{Error: msg})
	return status
}
