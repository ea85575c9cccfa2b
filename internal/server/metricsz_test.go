package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pool"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// scrapeMetricsz fetches /metricsz and returns its lines.
func scrapeMetricsz(t *testing.T, s *Server) []string {
	t.Helper()
	r := httptest.NewRequest(http.MethodGet, "/metricsz", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("/metricsz = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type %q", ct)
	}
	return strings.Split(strings.TrimRight(w.Body.String(), "\n"), "\n")
}

// metricValue extracts one sample's value from scrape lines; prefix is the
// full sample name including any label set.
func metricValue(t *testing.T, lines []string, prefix string) float64 {
	t.Helper()
	for _, line := range lines {
		if strings.HasPrefix(line, prefix+" ") {
			v, err := strconv.ParseFloat(line[len(prefix)+1:], 64)
			if err != nil {
				t.Fatalf("bad value in %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no sample %q in scrape:\n%s", prefix, strings.Join(lines, "\n"))
	return 0
}

// TestMetricszMatchesStatsz drives mixed traffic (successes and errors)
// through two endpoints and requires the Prometheus exposition and the JSON
// stats snapshot to agree exactly — they must read the same instruments.
func TestMetricszMatchesStatsz(t *testing.T) {
	s := newTestServer()
	defer s.Close()
	for i := 0; i < 3; i++ {
		do(t, s, http.MethodGet, "/v1/metrics?family=MS&l=2&n=3", "", nil)
	}
	do(t, s, http.MethodGet, "/v1/metrics?family=nope", "", nil)
	do(t, s, http.MethodGet, "/v1/route?family=MS&l=2&n=3&src=2314567&dst=7654321", "", nil)

	var st StatsResponse
	if code := do(t, s, http.MethodGet, "/statsz", "", &st); code != http.StatusOK {
		t.Fatalf("/statsz = %d", code)
	}
	lines := scrapeMetricsz(t, s)

	for _, ep := range []string{"/v1/metrics", "/v1/route"} {
		sel := `{endpoint="` + ep + `"}`
		got := st.Endpoints[ep]
		if v := metricValue(t, lines, "scgd_http_requests_total"+sel); int64(v) != got.Requests {
			t.Errorf("%s requests: metricsz %v, statsz %d", ep, v, got.Requests)
		}
		if v := metricValue(t, lines, "scgd_http_errors_total"+sel); int64(v) != got.Errors {
			t.Errorf("%s errors: metricsz %v, statsz %d", ep, v, got.Errors)
		}
		if v := metricValue(t, lines, "scgd_http_request_duration_us_count"+sel); int64(v) != got.Latency.Count {
			t.Errorf("%s latency count: metricsz %v, statsz %d", ep, v, got.Latency.Count)
		}
	}
	if v := metricValue(t, lines, "scgd_cache_builds_total"); int64(v) != st.Cache.Builds {
		t.Errorf("cache builds: metricsz %v, statsz %d", v, st.Cache.Builds)
	}
	if v := metricValue(t, lines, "scgd_cache_hits_total"); int64(v) != st.Cache.Hits {
		t.Errorf("cache hits: metricsz %v, statsz %d", v, st.Cache.Hits)
	}
	if v := metricValue(t, lines, "scgd_jobs_submitted_total"); int64(v) != st.Jobs.Submitted {
		t.Errorf("jobs submitted: metricsz %v, statsz %d", v, st.Jobs.Submitted)
	}
	// The runtime sampler registered its families at construction.
	if v := metricValue(t, lines, "go_goroutines"); v < 1 {
		t.Errorf("implausible go_goroutines %v", v)
	}
}

// TestMetricszHistogramContract checks the exposition invariants at the
// HTTP level: cumulative le buckets are monotone in both coordinates and
// le="+Inf" equals _count.
func TestMetricszHistogramContract(t *testing.T) {
	s := newTestServer()
	defer s.Close()
	for i := 0; i < 8; i++ {
		do(t, s, http.MethodGet, "/v1/metrics?family=star&n=3", "", nil)
	}
	lines := scrapeMetricsz(t, s)
	prefix := `scgd_http_request_duration_us_bucket{endpoint="/v1/metrics",le="`
	var prevLe, prevCum int64 = -1, -1
	var inf int64 = -1
	for _, line := range lines {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := line[len(prefix):]
		q := strings.Index(rest, `"`)
		sp := strings.LastIndexByte(rest, ' ')
		cum, err := strconv.ParseInt(rest[sp+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if rest[:q] == "+Inf" {
			inf = cum
			continue
		}
		le, err := strconv.ParseInt(rest[:q], 10, 64)
		if err != nil {
			t.Fatalf("bad le in %q: %v", line, err)
		}
		if le <= prevLe || cum < prevCum {
			t.Errorf("bucket order violated at %q (prev le=%d cum=%d)", line, prevLe, prevCum)
		}
		prevLe, prevCum = le, cum
	}
	count := int64(metricValue(t, lines, `scgd_http_request_duration_us_count{endpoint="/v1/metrics"}`))
	if inf != count || count != 8 {
		t.Errorf("le=+Inf %d, _count %d, want both 8", inf, count)
	}
}

// TestRequestIDIssuedAndEchoed pins the X-Request-Id contract: generated
// when absent or invalid, echoed verbatim when the client supplies a valid
// one, and stamped into the access log.
func TestRequestIDIssuedAndEchoed(t *testing.T) {
	var access strings.Builder
	s := New(Config{AccessLog: &access, RequestTimeout: 5 * time.Second})
	defer s.Close()

	r := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	generated := w.Header().Get("X-Request-Id")
	if !telemetry.ValidRequestID(generated) {
		t.Fatalf("generated id %q invalid", generated)
	}

	r = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	r.Header.Set("X-Request-Id", "client-abc-1")
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if got := w.Header().Get("X-Request-Id"); got != "client-abc-1" {
		t.Fatalf("valid client id not echoed: %q", got)
	}

	r = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	r.Header.Set("X-Request-Id", "has space and\"quote")
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if got := w.Header().Get("X-Request-Id"); !telemetry.ValidRequestID(got) || got == "has space and\"quote" {
		t.Fatalf("invalid client id not replaced: %q", got)
	}

	lines := strings.Split(strings.TrimSpace(access.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d access records, want 3", len(lines))
	}
	var rec AccessRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("bad access record: %v", err)
	}
	if rec.ReqID != generated {
		t.Fatalf("access record req_id %q, want %q", rec.ReqID, generated)
	}
}

// TestSlowLogPhases runs with a zero slow threshold so every request logs,
// and requires the slow record to carry the same request ID the client got
// plus the handler's span timeline.
func TestSlowLogPhases(t *testing.T) {
	var slow strings.Builder
	s := New(Config{SlowLog: &slow, RequestTimeout: 5 * time.Second})
	defer s.Close()

	r := httptest.NewRequest(http.MethodGet, "/v1/route?family=MS&l=2&n=3&src=2314567&dst=7654321", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("route = %d: %s", w.Code, w.Body.String())
	}
	reqID := w.Header().Get("X-Request-Id")

	var rec SlowRecord
	if err := json.Unmarshal([]byte(strings.TrimSpace(slow.String())), &rec); err != nil {
		t.Fatalf("bad slow record %q: %v", slow.String(), err)
	}
	if rec.ReqID != reqID {
		t.Fatalf("slow record req_id %q, response header %q", rec.ReqID, reqID)
	}
	if rec.Endpoint != "/v1/route" || rec.Status != http.StatusOK {
		t.Fatalf("slow record %+v", rec)
	}
	var names []string
	for _, ph := range rec.Phases {
		names = append(names, ph.Name)
		if ph.StartUS < 0 || ph.DurUS < 0 {
			t.Errorf("negative span %+v", ph)
		}
	}
	got := strings.Join(names, ",")
	// A cold route builds the topology inside the cache phase.
	want := "admission,decode,cache,build-topology,solve,verify,encode"
	if got != want {
		t.Fatalf("phases %q, want %q", got, want)
	}
	if st := s.Stats(); st.SlowRequests != 1 {
		t.Fatalf("slow_requests %d, want 1", st.SlowRequests)
	}
}

// TestProfileSlowRecordPhases reads the /v1/profile slow records of three
// submits of one key: a cold one, whose job holds the one build slot while
// holdNetwork keeps its network build open; one that coalesces onto that
// job; and a warm one after both. Each record names the request's waits
// instead of one admission span over the whole request, and the build's
// own phases stay in the job's record under the cold submit's ID.
func TestProfileSlowRecordPhases(t *testing.T) {
	var slow syncBuilder
	s := New(Config{SlowLog: &slow, ProfileWorkers: 1, RequestTimeout: 30 * time.Second, SampleInterval: -1})
	defer s.Close()
	const target = "/v1/profile?family=MS&l=2&n=3"

	release := holdNetwork(t, s.cache, msKey(2, 3))
	var g pool.Group
	codes := make([]int, 2)
	g.Go(func() { codes[0] = serve(s, target, "cold").Code })
	waitFor(t, "the cold submit's job runs", func() bool { return s.jobs.Stats().Running == 1 })
	g.Go(func() { codes[1] = serve(s, target, "coalesced").Code })
	waitFor(t, "the second submit joins the job", func() bool { return s.jobs.Stats().Coalesced == 1 })
	release()
	g.Wait()
	if w := serve(s, target, "warm"); codes[0] != http.StatusOK || codes[1] != http.StatusOK || w.Code != http.StatusOK {
		t.Fatalf("cold %d, coalesced %d, warm %d; want 200 each", codes[0], codes[1], w.Code)
	}

	got := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(slow.String()), "\n") {
		var rec SlowRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad slow record %q: %v", line, err)
		}
		var names []string
		for _, ph := range rec.Phases {
			names = append(names, ph.Name)
		}
		got[rec.Endpoint+" "+rec.ReqID] = strings.Join(names, ",")
	}
	for rec, want := range map[string]string{
		"/v1/profile cold":      "admission,decode,cache,slot-wait,job,encode",
		"/v1/profile coalesced": "admission,decode,cache,job-wait,encode",
		"/v1/profile warm":      "admission,decode,cache,encode",
	} {
		if got[rec] != want {
			t.Errorf("%s: phases %q, want %q", rec, got[rec], want)
		}
	}
	// The job may or may not reach the held network build before the
	// release (build-wait); it always builds the profile.
	if job := got[jobEndpoint+" cold"]; !strings.HasSuffix(job, "build-profile") {
		t.Errorf("%s cold: phases %q, want the build-profile phase last", jobEndpoint, job)
	}
}

// TestTracesOnlyWithSlowLog counts the span timelines a server takes.
// Without a slow log, their one reader, no request, profile job or store
// write-back takes one; with it, each takes exactly one. The jobs, at k = 7
// and k = 8, run on their submits.
func TestTracesOnlyWithSlowLog(t *testing.T) {
	var taken atomic.Int64
	defer func(orig func(string, time.Time) *telemetry.Trace) { acquireTrace = orig }(acquireTrace)
	acquireTrace = func(id string, start time.Time) *telemetry.Trace {
		taken.Add(1)
		return telemetry.AcquireTrace(id, start)
	}
	targets := []string{
		"/v1/route?family=MS&l=2&n=3&src=2314567&dst=7654321", // cold network
		"/v1/route?family=MS&l=2&n=3&src=1234567&dst=7654321",
		"/v1/metrics?family=MS&l=2&n=3",
		"/v1/neighbors?family=MS&l=2&n=3&node=2314567",
		"/v1/profile?family=MS&l=2&n=3", // a job, then its write-back
		"/v1/profile?family=star&n=7",   // the same at k = 8
		"/healthz",
	}
	for _, tc := range []struct {
		name string
		slow io.Writer
		want int64
	}{
		{"without slow log", nil, 0},
		{"with slow log", io.Discard, int64(len(targets)) + 2 + 2},
	} {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		s := New(Config{Store: st, SlowLog: tc.slow, RequestTimeout: 30 * time.Second, SampleInterval: -1})
		for _, target := range targets {
			if code := do(t, s, http.MethodGet, target, "", nil); code != http.StatusOK {
				t.Fatalf("%s: %s = %d", tc.name, target, code)
			}
		}
		s.Close() // drains both write-backs
		if got := st.Snapshot().Writes; got != 2 {
			t.Fatalf("%s: %d store writes, want 2", tc.name, got)
		}
		if got := taken.Swap(0); got != tc.want {
			t.Errorf("%s: %d traces taken, want %d", tc.name, got, tc.want)
		}
	}
}

// TestProfileJobCarriesRequestID requires the submitting request's ID on
// the submit's done snapshot and on a poll of the job.
func TestProfileJobCarriesRequestID(t *testing.T) {
	s := newTestServer()
	defer s.Close()

	w := serve(s, "/v1/profile?family=MS&l=2&n=1", "prof-req-7")
	if w.Code != http.StatusOK {
		t.Fatalf("submit = %d: %s", w.Code, w.Body.String())
	}
	var pr ProfileResponse
	if err := json.NewDecoder(w.Body).Decode(&pr); err != nil {
		t.Fatalf("bad submit body: %v", err)
	}
	if pr.RequestID != "prof-req-7" || pr.Status != string(JobDone) {
		t.Fatalf("submit snapshot %+v, want done with request_id prof-req-7", pr)
	}
	var poll ProfileResponse
	if code := do(t, s, http.MethodGet, "/v1/profile?id="+pr.JobID, "", &poll); code != http.StatusOK || poll.RequestID != "prof-req-7" {
		t.Fatalf("poll = %d %+v, want request_id prof-req-7", code, poll)
	}
}

// TestAsyncJobEmitsSlowRecord requires the build a profile job runs to
// land in the slow log under the submitting request's ID, in a job record
// of its own beside the request's.
func TestAsyncJobEmitsSlowRecord(t *testing.T) {
	var slow syncBuilder
	s := New(Config{SlowLog: &slow, ProfileWorkers: 1, RequestTimeout: 30 * time.Second})
	defer s.Close()

	if w := serve(s, "/v1/profile?family=MS&l=2&n=1", "job-slow-1"); w.Code != http.StatusOK {
		t.Fatalf("submit = %d: %s", w.Code, w.Body.String())
	}
	found := false
	for _, line := range strings.Split(strings.TrimSpace(slow.String()), "\n") {
		var rec SlowRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad slow record %q: %v", line, err)
		}
		if rec.Endpoint == "job:/v1/profile" {
			found = true
			if rec.ReqID != "job-slow-1" {
				t.Errorf("job slow record req_id %q", rec.ReqID)
			}
			var names []string
			for _, ph := range rec.Phases {
				names = append(names, ph.Name)
			}
			if want := "build-profile"; !strings.Contains(strings.Join(names, ","), want) {
				t.Errorf("job phases %v missing %q", names, want)
			}
		}
	}
	if !found {
		t.Fatalf("no job slow record in:\n%s", slow.String())
	}
}

// syncBuilder is a strings.Builder safe for the worker/test goroutine pair.
type syncBuilder struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuilder) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuilder) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

// TestCloseStopsSampler pins sampler shutdown: a server with a fast sample
// interval must not leave its polling goroutine running after Close.
func TestCloseStopsSampler(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{SampleInterval: time.Millisecond, RequestTimeout: time.Second})
	do(t, s, http.MethodGet, "/metricsz", "", nil)
	time.Sleep(5 * time.Millisecond)
	s.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d > %d after Close", runtime.NumGoroutine(), before)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestConcurrentScrapes races scrapers against traffic; run under -race.
func TestConcurrentScrapes(t *testing.T) {
	s := newTestServer()
	defer s.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			r := httptest.NewRequest(http.MethodGet, "/v1/metrics?family=star&n=3", nil)
			s.Handler().ServeHTTP(httptest.NewRecorder(), r)
		}
	}()
	for i := 0; i < 50; i++ {
		r := httptest.NewRequest(http.MethodGet, "/metricsz", nil)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("/metricsz = %d", w.Code)
		}
	}
	<-done
}
