package telemetry

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/pool"
)

// scrape renders the registry and splits it into lines.
func scrape(t *testing.T, r *Registry) []string {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
}

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests served.", Label{Key: "endpoint", Value: "/v1/route"})
	c2 := r.Counter("test_requests_total", "Requests served.", Label{Key: "endpoint", Value: "/v1/metrics"})
	g := r.Gauge("test_queue_depth", "Queued jobs.")
	r.GaugeFunc("test_uptime_seconds", "Uptime.", func() float64 { return 12.5 })
	r.CounterFunc("test_builds_total", "Builds.", func() int64 { return 7 })

	for i := 0; i < 4; i++ {
		c.Inc()
	}
	c2.Inc()
	g.Set(2.25)

	out := strings.Join(scrape(t, r), "\n")
	for _, want := range []string{
		"# HELP test_requests_total Requests served.",
		"# TYPE test_requests_total counter",
		`test_requests_total{endpoint="/v1/route"} 4`,
		`test_requests_total{endpoint="/v1/metrics"} 1`,
		"# TYPE test_queue_depth gauge",
		"test_queue_depth 2.25",
		"test_uptime_seconds 12.5",
		"test_builds_total 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestExpositionConformance checks the structural rules of the text format:
// every family has exactly one HELP and one TYPE line (in that order,
// before its samples), every sample line parses, and names are legal.
func TestExpositionConformance(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conf_ops_total", "Ops.", Label{Key: "kind", Value: `odd"value\with specials`})
	h := r.Histogram("conf_latency_us", "Latency.", Label{Key: "endpoint", Value: "/x"})
	c.Inc()
	for v := int64(0); v < 100; v += 3 {
		h.Observe(v)
	}
	lines := scrape(t, r)
	seenHelp := map[string]bool{}
	seenType := map[string]bool{}
	typed := map[string]string{}
	for _, line := range lines {
		if strings.HasPrefix(line, "# HELP ") {
			name := strings.Fields(line)[2]
			if seenHelp[name] {
				t.Errorf("duplicate HELP for %s", name)
			}
			seenHelp[name] = true
			if seenType[name] {
				t.Errorf("TYPE for %s precedes HELP", name)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			name, typ := f[2], f[3]
			if !seenHelp[name] {
				t.Errorf("TYPE for %s without preceding HELP", name)
			}
			if seenType[name] {
				t.Errorf("duplicate TYPE for %s", name)
			}
			seenType[name] = true
			typed[name] = typ
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Errorf("unknown TYPE %q", typ)
			}
			continue
		}
		// Sample line: name[{labels}] value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Errorf("sample value does not parse in %q: %v", line, err)
		}
		name := line[:sp]
		if b := strings.IndexByte(name, '{'); b >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Errorf("unterminated label set in %q", line)
			}
			name = name[:b]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !validMetricName(name) {
			t.Errorf("illegal metric name %q", name)
		}
		if !seenType[base] && !seenType[name] {
			t.Errorf("sample %q has no TYPE line", line)
		}
	}
	if typed["conf_ops_total"] != "counter" || typed["conf_latency_us"] != "histogram" {
		t.Errorf("family types %v", typed)
	}
}

// TestHistogramExposition pins the histogram contract: cumulative bucket
// counts are monotone, le="+Inf" equals _count, and _sum is the exact sum.
func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hist_val", "Values.")
	var sum, count int64
	for _, v := range []int64{0, 1, 1, 5, 17, 17, 300, 1 << 30} {
		h.Observe(v)
		sum += v
		count++
	}
	var prevLe, prevCum int64 = -1, -1
	var infCount, gotCount, gotSum int64 = -1, -1, -1
	for _, line := range scrape(t, r) {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		val, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		switch {
		case strings.HasPrefix(line, "hist_val_bucket{le=\"+Inf\"}"):
			infCount = val
		case strings.HasPrefix(line, "hist_val_bucket{le=\""):
			leStr := strings.TrimSuffix(strings.TrimPrefix(line[:sp], "hist_val_bucket{le=\""), "\"}")
			le, err := strconv.ParseInt(leStr, 10, 64)
			if err != nil {
				t.Fatalf("bad le in %q: %v", line, err)
			}
			if le <= prevLe {
				t.Errorf("le %d not increasing after %d", le, prevLe)
			}
			if val < prevCum {
				t.Errorf("cumulative count %d decreased after %d", val, prevCum)
			}
			prevLe, prevCum = le, val
		case strings.HasPrefix(line, "hist_val_sum "):
			gotSum = val
		case strings.HasPrefix(line, "hist_val_count "):
			gotCount = val
		}
	}
	if infCount != count {
		t.Errorf("le=+Inf bucket %d, want total count %d", infCount, count)
	}
	if gotCount != count || gotSum != sum {
		t.Errorf("_count=%d _sum=%d, want %d and %d", gotCount, gotSum, count, sum)
	}
	if prevCum > count {
		t.Errorf("finite cumulative count %d exceeds total %d", prevCum, count)
	}
}

func TestRegistryMisusePanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"bad metric name", func(r *Registry) { r.Counter("9bad", "") }},
		{"bad label key", func(r *Registry) { r.Counter("ok_total", "", Label{Key: "0k", Value: "v"}) }},
		{"duplicate series", func(r *Registry) {
			r.Counter("dup_total", "")
			r.Counter("dup_total", "")
		}},
		{"type mismatch", func(r *Registry) {
			r.Counter("mix_total", "")
			r.Gauge("mix_total", "", Label{Key: "a", Value: "b"})
		}},
		{"nil gauge func", func(r *Registry) { r.GaugeFunc("gf", "", nil) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", tc.name)
				}
			}()
			tc.fn(NewRegistry())
		})
	}
}

// TestConcurrentObserveAndScrape runs writers against scrapers under -race.
func TestConcurrentObserveAndScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cc_total", "")
	h := r.Histogram("cc_lat", "")
	const workers = 8
	pool.Each(workers, workers, func(i int) {
		for j := 0; j < 500; j++ {
			if i%2 == 0 {
				c.Inc()
				h.Observe(int64(j))
			} else {
				var sb strings.Builder
				_ = r.WritePrometheus(&sb)
			}
		}
	})
	if c.Value() != 4*500 {
		t.Fatalf("counter %d, want %d", c.Value(), 4*500)
	}
}

func TestSamplerPublishesRuntimeGauges(t *testing.T) {
	r := NewRegistry()
	s := NewSampler(r, time.Hour) // no tick needed; SampleOnce below
	defer s.Stop()
	s.SampleOnce()
	out := strings.Join(scrape(t, r), "\n")
	if !strings.Contains(out, "go_goroutines ") {
		t.Fatalf("no go_goroutines gauge:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "go_goroutines ") {
			v, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			if err != nil || v < 1 {
				t.Fatalf("implausible goroutine count %q (err %v)", line, err)
			}
		}
	}
	if !strings.Contains(out, "go_heap_objects_bytes ") {
		t.Errorf("no heap gauge:\n%s", out)
	}
	if !strings.Contains(out, `go_gc_pause_seconds{quantile="0.99"}`) {
		t.Errorf("no GC pause quantile gauges:\n%s", out)
	}
}

func TestSamplerStartStopNoLeak(t *testing.T) {
	r := NewRegistry()
	s := NewSampler(r, time.Millisecond)
	s.Start()
	time.Sleep(10 * time.Millisecond)
	s.Stop()
	s.Stop() // idempotent
	// A second sampler on the same interval proves Stop released the runner.
	s2 := NewSampler(NewRegistry(), time.Millisecond)
	s2.Start()
	s2.Stop()
}
