package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
)

// span is one timed call in the traced run: an op, an HTTP call, a server
// phase joined from scgd's slow log by request ID, or a direct call into a
// layer. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	ReqID  string `json:"req_id,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written once, after the run. A
// nil tracer records nothing.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) begin(name string, parent int, reqID string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, ReqID: reqID, Start: int64(time.Since(t.base))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.base))
}

// add records a span with known times (a joined server phase).
func (t *tracer) add(name string, parent int, reqID string, start, end int64) {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, ReqID: reqID, Start: start, End: end})
}

// write dumps the spans as gzip-compressed NDJSON, one span per line. A
// traced route-hot worker has about 180,000 spans; compressed, the dump is
// a few megabytes instead of twenty, which keeps its write-back small.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	w := bufio.NewWriter(zw)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counters are the /statsz and /metricsz readings a traced pass takes
// around its timed window, by name. They are read in process from the
// same instruments those endpoints render, so reading them adds no traffic
// to the measured connection.
type counters map[string]float64

func snapshot(s *server.Server) counters {
	st := s.Stats()
	c := counters{
		"cache.hits":      float64(st.Cache.Hits),
		"cache.misses":    float64(st.Cache.Misses),
		"cache.builds":    float64(st.Cache.Builds),
		"cache.evictions": float64(st.Cache.Evictions),
		"cache.coalesced": float64(st.Cache.Coalesced),
	}
	var buf bytes.Buffer
	_ = s.Registry().WritePrometheus(&buf) // writes to a bytes.Buffer cannot fail
	for _, line := range strings.Split(buf.String(), "\n") {
		name, rest, ok := strings.Cut(line, `{endpoint="/v1/`)
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64)
		if err != nil {
			continue
		}
		switch name {
		case "scgd_http_request_duration_us_sum":
			c["server.duration_us"] += v
		case "scgd_http_request_duration_us_count":
			c["server.requests"] += v
		}
	}
	return c
}

// ratio is hits over lookups, 0 when there were none.
func (c counters) ratio(hits, misses string) float64 {
	if c[hits]+c[misses] == 0 {
		return 0
	}
	return c[hits] / (c[hits] + c[misses])
}

// begin and end bracket a server's share of the timed window. Only the
// traced run reads counters.
func (p *pass) begin(s *server.Server) {
	if p.o.trace {
		p.cur = snapshot(s)
	}
}

func (p *pass) end(s *server.Server) {
	if !p.o.trace {
		return
	}
	for k, v := range snapshot(s) {
		p.counters[k] += v - p.cur[k]
	}
	p.cur = nil
}

// runtimeDelta is the Go runtime's allocation and GC work over a window.
type runtimeDelta struct {
	mallocs, bytes, gcs uint64
	pauseNS             uint64
}

func readRuntime() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func diffRuntime(a, b runtime.MemStats) runtimeDelta {
	return runtimeDelta{
		mallocs: b.Mallocs - a.Mallocs,
		bytes:   b.TotalAlloc - a.TotalAlloc,
		gcs:     uint64(b.NumGC - a.NumGC),
		pauseNS: b.PauseTotalNs - a.PauseTotalNs,
	}
}

// slowRecord mirrors scgd's slow-log line.
type slowRecord struct {
	Time     time.Time `json:"ts"`
	ReqID    string    `json:"req_id"`
	Endpoint string    `json:"endpoint"`
	DurUS    int64     `json:"dur_us"`
	Phases   []struct {
		Name    string `json:"name"`
		StartUS int64  `json:"start_us"`
		DurUS   int64  `json:"dur_us"`
	} `json:"phases"`
}

func parseSlowLog(b []byte) ([]slowRecord, error) {
	var out []slowRecord
	dec := json.NewDecoder(bytes.NewReader(b))
	for dec.More() {
		var r slowRecord
		if err := dec.Decode(&r); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// routePhases are the /v1/route handler's phases in pipeline order.
var routePhases = []string{"admission", "decode", "cache", "solve", "verify", "encode"}

// phaseStats summarises slow-log records: the mean of each route phase,
// and the queue wait and run time of async profile jobs.
type phaseStats struct {
	routes  int
	phaseUS map[string]float64
	jobs    int
	queueUS float64
	runUS   float64
}

// joinSlowLog turns slow-log records into phase statistics and, when t is
// set, into spans. A request's record goes under the HTTP span that carried
// its request ID and was open when the server started it: the calls of one
// op (a profile submit and its polls) share the op's ID. A job's record
// carries its submitting request's ID and goes under that op; its wait is
// the time from the submit's server start to the job's start.
// Route phases count only records from mark on, the timed window; jobs
// count over the whole pass, set-up included.
func joinSlowLog(recs []slowRecord, t *tracer, mark int) phaseStats {
	ps := phaseStats{phaseUS: map[string]float64{}}
	submit := map[string]time.Time{}
	httpSpans := map[string][]int{}
	if t != nil {
		for _, s := range t.spans {
			if s.Name == "http" {
				httpSpans[s.ReqID] = append(httpSpans[s.ReqID], s.ID)
			}
		}
	}
	for _, r := range recs {
		if first, ok := submit[r.ReqID]; !strings.HasPrefix(r.Endpoint, "job:") && (!ok || r.Time.Before(first)) {
			submit[r.ReqID] = r.Time
		}
	}
	for i, r := range recs {
		job := strings.HasPrefix(r.Endpoint, "job:")
		switch {
		case job:
			ps.jobs++
			ps.runUS += float64(r.DurUS)
			if sub, ok := submit[r.ReqID]; ok {
				ps.queueUS += float64(r.Time.Sub(sub).Nanoseconds()) / 1e3
			}
		case r.Endpoint == "/v1/route" && i >= mark:
			ps.routes++
			for _, ph := range r.Phases {
				ps.phaseUS[ph.Name] += float64(ph.DurUS)
			}
		}
		if t == nil {
			continue
		}
		start := r.Time.Sub(t.base).Nanoseconds()
		parent, name := 0, "server "+r.Endpoint
		for _, id := range httpSpans[r.ReqID] {
			if parent == 0 || t.spans[id-1].Start <= start {
				parent = id
			}
		}
		if job {
			name = "job"
			if parent != 0 {
				parent = t.spans[parent-1].Parent
			}
		}
		t.add(name, parent, r.ReqID, start, start+r.DurUS*1e3)
		id := len(t.spans)
		for _, ph := range r.Phases {
			s := start + ph.StartUS*1e3
			t.add("phase "+ph.Name, id, r.ReqID, s, s+ph.DurUS*1e3)
		}
	}
	return ps
}

func (ps phaseStats) meanPhase(name string) float64 { return ps.phaseUS[name] / float64(ps.routes) }

// perLayer names every per-layer metric with its unit, in print order.
var perLayer = []struct{ name, unit string }{
	{"loadgen.self_us", "us"},
	{"loadgen.polls_per_op", "count"},
	{"net.null_roundtrip_us", "us"},
	{"net.self_us", "us"},
	{"server.observed_us", "us"},
	{"server.handler_us.route", "us"},
	{"server.handler_us.metrics", "us"},
	{"server.handler_us.neighbors", "us"},
	{"server.handler_us.profile", "us"},
	{"server.handler_allocs.route", "count"},
	{"server.handler_allocs.metrics", "count"},
	{"server.handler_allocs.neighbors", "count"},
	{"server.handler_allocs.profile", "count"},
	{"server.phase.admission_us", "us"},
	{"server.phase.decode_us", "us"},
	{"server.phase.cache_us", "us"},
	{"server.phase.solve_us", "us"},
	{"server.phase.verify_us", "us"},
	{"server.phase.encode_us", "us"},
	{"server.middleware_us", "us"},
	{"server.new_us", "us"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.bytes_per_op", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_us", "us"},
	{"topology.route_us", "us"},
	{"topology.verify_us", "us"},
	{"topology.hops_mean", "count"},
	{"topology.stretch_mean", "ratio"},
	{"cache.hit_ratio", "ratio"},
	{"cache.builds", "count"},
	{"cache.evictions", "count"},
	{"cache.coalesced", "count"},
	{"jobs.queue_wait_us", "us"},
	{"jobs.run_us", "us"},
	{"core.profile_us.k7", "us"},
	{"core.profile_us.k8", "us"},
	{"core.profile_us.k9", "us"},
	{"core.neighbor_table_us.k8", "us"},
	{"core.states_per_s", "1/s"},
	{"core.dist_bytes", "B"},
	{"store.encode_us", "us"},
	{"store.put_us", "us"},
	{"store.write_io_us", "us"},
	{"store.load_us", "us"},
	{"store.decode_us", "us"},
	{"store.read_io_us", "us"},
	{"trace.overhead_pct", "%"},
	{"layers.residual_us", "us"},
	{"layers.residual_pct", "%"},
}

// tracedResult takes the median of each per-layer metric over the traced
// workers and prints the layer-sum lines.
func tracedResult(spec *spec, workers []*workerResult, runFails int) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	failed := runFails
	for _, w := range workers {
		res.Attempted += w.Ops
		failed += w.Failed
	}
	res.Failed = failed
	res.Correct = failed == 0
	for _, m := range perLayer {
		var vals []float64
		for _, w := range workers {
			v, ok := w.Layers[m.name]
			if !ok {
				return nil, fmt.Errorf("worker reported no %s", m.name)
			}
			vals = append(vals, v)
		}
		res.Metrics[m.name] = metric{median(vals), m.unit}
	}
	var meanOp []float64
	for _, w := range workers {
		meanOp = append(meanOp, w.Layers["mean_op_us"])
	}
	v := func(name string) float64 { return res.Metrics[name].Value }
	fmt.Printf("%s layer sum: mean op %.2f us = loadgen.self_us %.2f + net.null_roundtrip_us %.2f + server.observed_us %.2f + layers.residual_us %.2f (layers.residual_pct %.1f%%)\n",
		spec.name, median(meanOp), v("loadgen.self_us"), v("net.null_roundtrip_us"), v("server.observed_us"), v("layers.residual_us"), v("layers.residual_pct"))
	// The admission phase is middleware work, so the split counts it
	// inside server.middleware_us.
	var parts []string
	split := v("server.middleware_us")
	for _, ph := range routePhases[1:] {
		parts = append(parts, fmt.Sprintf("%s %.2f", ph, v("server.phase."+ph+"_us")))
		split += v("server.phase." + ph + "_us")
	}
	fmt.Printf("%s server split: server.observed_us %.2f = server.middleware_us %.2f (phase admission %.2f) + route phases [%s] + unattributed %.2f\n",
		spec.name, v("server.observed_us"), v("server.middleware_us"), v("server.phase.admission_us"), strings.Join(parts, " + "), v("server.observed_us")-split)
	return res, nil
}
