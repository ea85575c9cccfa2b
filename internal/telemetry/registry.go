// Package telemetry is scgd's production-telemetry layer: a stdlib-only
// metrics registry with Prometheus text exposition, a runtime/metrics
// sampler, and request-scoped span timelines — the fleet-facing counterpart
// of internal/obs (which instruments individual simulation runs).
//
// Three pieces:
//
//   - Registry: counters, gauges, and histograms (backed by the obs
//     log-bucketed histogram) organized into metric families with a *static*
//     label cardinality — every family and label key is registered up front
//     with constant names (scglint's telemetrylabel analyzer enforces this),
//     so a scrape can never allocate new series. WritePrometheus renders the
//     whole registry in the Prometheus text exposition format for /metricsz.
//   - Sampler: a runtime/metrics poller (heap, GC, goroutines, scheduler
//     latency) feeding gauges on a fixed interval, hosted on a pool.Runner
//     so the spawn stays inside the audited chokepoint.
//   - Trace: a per-request span timeline threaded through context — phase
//     names with start offsets and durations — pooled so the serving hot
//     path stays allocation-free, plus X-Request-Id generation.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Label is one metric dimension. Keys are fixed at registration; the set of
// values a family carries is exactly the set passed to registration calls,
// so series cardinality is bounded by the source code.
type Label struct {
	Key, Value string
}

// Metric family types in the Prometheus exposition sense.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// Counter is a monotonically increasing integer metric. The zero value is
// usable but unregistered; obtain one from Registry.Counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float-valued metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a concurrency-safe wrapper over the obs log-bucketed
// histogram. Observe is O(1) and allocation-free; the exposition path
// snapshots cumulative buckets under the same lock.
type Histogram struct {
	mu sync.Mutex
	h  obs.Histogram
}

// Observe records one value (negative values clamp to 0, as in obs).
func (h *Histogram) Observe(v int64) {
	h.mu.Lock()
	h.h.Observe(v)
	h.mu.Unlock()
}

// Summary returns the obs-style condensed view (count, mean, p50/p95/p99,
// max) — the bridge that keeps /statsz and /metricsz reading one source.
func (h *Histogram) Summary() obs.Summary {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Summary()
}

// snapshot returns the cumulative buckets plus exact count and sum.
func (h *Histogram) snapshot() (cum []obs.CumBucket, count, sum int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Cumulative(), h.h.Count(), h.h.Sum()
}

// series is one labeled member of a family, holding exactly one instrument.
type series struct {
	labels    string // pre-rendered `{k="v",...}` suffix, "" when unlabeled
	counter   *Counter
	gauge     *Gauge
	counterFn func() int64
	gaugeFn   func() float64
	hist      *Histogram
}

// family is one named metric family: a HELP/TYPE pair and its series.
type family struct {
	name, help, typ string
	series          []*series
	bySig           map[string]bool
}

// Registry holds metric families in registration order. All registration
// happens at construction time (server start); the serving path only touches
// the returned instruments, and scrapes only read.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Counter registers (or extends) the counter family name and returns the
// series instrument for the given labels.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.add("Counter", name, help, typeCounter, &series{counter: c}, labels)
	return c
}

// CounterFunc registers a counter series whose value is read at scrape time
// — for monotone counts owned elsewhere (cache builds, GC cycles).
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	if fn == nil {
		panic("telemetry: Registry.CounterFunc: nil value function")
	}
	r.add("CounterFunc", name, help, typeCounter, &series{counterFn: fn}, labels)
}

// Gauge registers a settable gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.add("Gauge", name, help, typeGauge, &series{gauge: g}, labels)
	return g
}

// GaugeFunc registers a gauge series read at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if fn == nil {
		panic("telemetry: Registry.GaugeFunc: nil value function")
	}
	r.add("GaugeFunc", name, help, typeGauge, &series{gaugeFn: fn}, labels)
}

// Histogram registers a histogram series (exposed with cumulative `le`
// buckets, `_sum`, and `_count`).
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	h := &Histogram{}
	r.add("Histogram", name, help, typeHistogram, &series{hist: h}, labels)
	return h
}

// add validates and installs one series. Registration is rare and panics on
// misuse: a bad metric name is a programming error caught by the first test
// that constructs the server, not a runtime condition to handle.
func (r *Registry) add(method, name, help, typ string, s *series, labels []Label) {
	if !validMetricName(name) {
		panic("telemetry: Registry." + method + ": invalid metric name " + strconv.Quote(name))
	}
	sig := renderLabels(method, labels)
	s.labels = sig
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, bySig: make(map[string]bool)}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	if f.typ != typ {
		panic("telemetry: Registry." + method + ": family " + name + " already registered as " + f.typ)
	}
	if f.bySig[sig] {
		panic("telemetry: Registry." + method + ": duplicate series " + name + sig)
	}
	f.bySig[sig] = true
	f.series = append(f.series, s)
}

// renderLabels validates and pre-renders the label suffix, sorting keys so
// one series has one signature regardless of argument order.
func renderLabels(method string, labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	out := "{"
	for i, l := range ls {
		if !validLabelKey(l.Key) {
			panic("telemetry: Registry." + method + ": invalid label key " + strconv.Quote(l.Key))
		}
		if i > 0 {
			if ls[i-1].Key == l.Key {
				panic("telemetry: Registry." + method + ": duplicate label key " + strconv.Quote(l.Key))
			}
			out += ","
		}
		out += l.Key + `="` + escapeLabelValue(l.Value) + `"`
	}
	return out + "}"
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4): HELP and TYPE lines followed by the series, with
// histograms expanded into cumulative `le` buckets, `_sum`, and `_count`.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.series {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	switch {
	case s.counter != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.counter.Value())
		return err
	case s.counterFn != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.counterFn())
		return err
	case s.gauge != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatFloat(s.gauge.Value()))
		return err
	case s.gaugeFn != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatFloat(s.gaugeFn()))
		return err
	case s.hist != nil:
		return writeHistogram(w, f.name, s)
	}
	return nil
}

// writeHistogram renders one histogram series: exact cumulative counts at
// each occupied bucket's largest contained value, the mandatory `le="+Inf"`
// series equal to _count, then _sum and _count.
func writeHistogram(w io.Writer, name string, s *series) error {
	cum, count, sum := s.hist.snapshot()
	sep := histLabelSep(s.labels)
	for _, b := range cum {
		if _, err := fmt.Fprintf(w, "%s_bucket%sle=\"%d\"} %d\n", name, sep, b.Le, b.Count); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"} %d\n", name, sep, count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n%s_count%s %d\n", name, s.labels, sum, name, s.labels, count); err != nil {
		return err
	}
	return nil
}

// histLabelSep turns a series label suffix into the opening of a bucket
// label set: "" -> "{", `{a="b"}` -> `{a="b",`.
func histLabelSep(labels string) string {
	if labels == "" {
		return "{"
	}
	return labels[:len(labels)-1] + ","
}

// formatFloat renders a gauge value: shortest exact representation, with
// the exposition spellings for the non-finite cases.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// validMetricName checks the exposition grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validLabelKey checks the label grammar [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelKey(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// escapeLabelValue escapes backslash, double-quote, and newline per the
// exposition format.
func escapeLabelValue(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}

// escapeHelp escapes backslash and newline in HELP text.
func escapeHelp(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}
