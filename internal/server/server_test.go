package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/pool"
	"repro/internal/topology"
)

func newTestServer() *Server {
	return New(Config{
		CacheBytes:     64 << 20,
		MaxInflight:    64,
		ProfileWorkers: 1,
		RequestTimeout: 30 * time.Second,
	})
}

// do issues one request against the in-process handler and decodes the JSON
// body into out (when non-nil).
func do(t *testing.T, s *Server, method, target, body string, out any) int {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, target, nil)
	} else {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if out != nil {
		if err := json.NewDecoder(w.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: bad JSON body: %v", method, target, err)
		}
	}
	return w.Code
}

func TestHealthz(t *testing.T) {
	s := newTestServer()
	defer s.Close()
	var h HealthResponse
	if code := do(t, s, http.MethodGet, "/healthz", "", &h); code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
	if h.Status != "ok" {
		t.Fatalf("status %q", h.Status)
	}
}

func TestRouteGetAndPostAgree(t *testing.T) {
	s := newTestServer()
	defer s.Close()
	const src, dst = "2314567", "7654321"
	var viaGet RouteResponse
	code := do(t, s, http.MethodGet, "/v1/route?family=MS&l=2&n=3&src="+src+"&dst="+dst, "", &viaGet)
	if code != http.StatusOK {
		t.Fatalf("GET route = %d", code)
	}
	var viaPost RouteResponse
	body := fmt.Sprintf(`{"family":"MS","l":2,"n":3,"src":%q,"dst":%q}`, src, dst)
	if code := do(t, s, http.MethodPost, "/v1/route", body, &viaPost); code != http.StatusOK {
		t.Fatalf("POST route = %d", code)
	}
	if !viaGet.Verified || !viaPost.Verified {
		t.Fatal("route not verified")
	}
	if viaGet.Hops != viaPost.Hops || viaGet.Hops == 0 {
		t.Fatalf("GET hops %d, POST hops %d", viaGet.Hops, viaPost.Hops)
	}
	if viaGet.Hops > viaGet.DiameterBound {
		t.Fatalf("hops %d exceed the diameter bound %d", viaGet.Hops, viaGet.DiameterBound)
	}
	if viaGet.Network != "MS(2,3)" || viaGet.K != 7 {
		t.Fatalf("network %q k=%d", viaGet.Network, viaGet.K)
	}
}

func TestRouteIdentityPair(t *testing.T) {
	s := newTestServer()
	defer s.Close()
	var resp RouteResponse
	code := do(t, s, http.MethodGet, "/v1/route?family=MS&l=2&n=3&src=1234567&dst=1234567", "", &resp)
	if code != http.StatusOK || resp.Hops != 0 {
		t.Fatalf("src==dst: code=%d hops=%d, want 200 with an empty route", code, resp.Hops)
	}
}

func TestNeighbors(t *testing.T) {
	s := newTestServer()
	defer s.Close()
	var resp NeighborsResponse
	code := do(t, s, http.MethodGet, "/v1/neighbors?family=MS&l=2&n=3&node=1234567", "", &resp)
	if code != http.StatusOK {
		t.Fatalf("/v1/neighbors = %d", code)
	}
	if len(resp.Neighbors) != resp.Degree {
		t.Fatalf("%d neighbors, degree %d", len(resp.Neighbors), resp.Degree)
	}
	for _, nb := range resp.Neighbors {
		if nb.Move == "" || len(nb.Node) == 0 {
			t.Fatalf("empty neighbor entry %+v", nb)
		}
	}
}

func TestMetrics(t *testing.T) {
	s := newTestServer()
	defer s.Close()
	var resp MetricsResponse
	code := do(t, s, http.MethodGet, "/v1/metrics?family=MS&l=2&n=3", "", &resp)
	if code != http.StatusOK {
		t.Fatalf("/v1/metrics = %d", code)
	}
	nw, err := topology.New(topology.MS, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Nodes != nw.Nodes() || resp.Degree != nw.Degree() || resp.DiameterBound != nw.DiameterUpperBound() {
		t.Fatalf("metrics %+v disagree with the topology layer", resp)
	}
	if resp.ExactDiameter != nil {
		t.Fatal("exact diameter reported before any profile job ran")
	}
}

func TestBadRequests(t *testing.T) {
	s := newTestServer()
	defer s.Close()
	cases := []struct {
		name, method, target, body string
		want                       int
	}{
		{"unknown family", http.MethodGet, "/v1/route?family=nope&l=2&n=3&src=123&dst=321", "", 400},
		{"bad l", http.MethodGet, "/v1/route?family=MS&l=x&n=3&src=123&dst=321", "", 400},
		{"negative n", http.MethodGet, "/v1/route?family=MS&l=2&n=-1&src=123&dst=321", "", 400},
		{"missing src", http.MethodGet, "/v1/route?family=MS&l=2&n=3&dst=7654321", "", 400},
		{"wrong-length src", http.MethodGet, "/v1/route?family=MS&l=2&n=3&src=123&dst=7654321", "", 400},
		{"src not a permutation", http.MethodGet, "/v1/route?family=MS&l=2&n=3&src=1134567&dst=7654321", "", 400},
		{"k above cap", http.MethodGet, "/v1/route?family=MS&l=20&n=20&src=123&dst=321", "", 400},
		{"route bad JSON", http.MethodPost, "/v1/route", "{not json", 400},
		{"route bad method", http.MethodDelete, "/v1/route", "", 405},
		{"neighbors bad method", http.MethodPost, "/v1/neighbors", "", 405},
		{"neighbors missing node", http.MethodGet, "/v1/neighbors?family=MS&l=2&n=3", "", 400},
		{"metrics bad method", http.MethodPost, "/v1/metrics", "", 405},
		{"metrics unknown family", http.MethodGet, "/v1/metrics?family=zzz", "", 400},
		{"profile unknown id", http.MethodGet, "/v1/profile?id=job-404", "", 404},
		{"profile k too large", http.MethodGet, "/v1/profile?family=MS&l=4&n=4", "", 400},
		{"profile bad method", http.MethodDelete, "/v1/profile", "", 405},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var e ErrorResponse
			code := do(t, s, tc.method, tc.target, tc.body, &e)
			if code != tc.want {
				t.Fatalf("%s %s = %d, want %d", tc.method, tc.target, code, tc.want)
			}
			if e.Error == "" {
				t.Fatal("error responses must carry a message")
			}
		})
	}
}

func TestProfileJobFlow(t *testing.T) {
	s := newTestServer()
	defer s.Close()
	var submitted ProfileResponse
	if code := do(t, s, http.MethodGet, "/v1/profile?family=MS&l=2&n=1", "", &submitted); code != http.StatusOK {
		t.Fatalf("profile submit = %d", code)
	}
	if submitted.JobID == "" {
		t.Fatal("no job id")
	}
	var polled ProfileResponse
	if code := do(t, s, http.MethodGet, "/v1/profile?id="+url.QueryEscape(submitted.JobID), "", &polled); code != http.StatusOK {
		t.Fatalf("poll = %d", code)
	}
	if polled.Status != string(JobDone) || polled.Result == nil || submitted.Status != polled.Status {
		t.Fatalf("submit %q, poll %q (err=%q): want both done", submitted.Status, polled.Status, polled.Error)
	}
	if polled.Result.Diameter <= 0 || polled.Result.Nodes <= 0 {
		t.Fatalf("degenerate profile %+v", polled.Result)
	}

	// Resubmitting the same instance now completes synchronously from cache.
	var again ProfileResponse
	if code := do(t, s, http.MethodGet, "/v1/profile?family=MS&l=2&n=1", "", &again); code != http.StatusOK {
		t.Fatalf("warm resubmit = %d", code)
	}
	if !again.Cached || again.Status != string(JobDone) {
		t.Fatalf("warm resubmit = %+v, want an immediately-done cached job", again)
	}

	// The resident table upgrades /v1/route and /v1/metrics responses.
	var rt RouteResponse
	if code := do(t, s, http.MethodGet, "/v1/route?family=MS&l=2&n=1&src=321&dst=123", "", &rt); code != http.StatusOK {
		t.Fatalf("route = %d", code)
	}
	if rt.ExactDistance == nil {
		t.Fatal("route did not pick up the resident exact-distance table")
	}
	if rt.Hops < *rt.ExactDistance {
		t.Fatalf("solver route (%d hops) beats the exact distance %d", rt.Hops, *rt.ExactDistance)
	}
	var m MetricsResponse
	if code := do(t, s, http.MethodGet, "/v1/metrics?family=MS&l=2&n=1", "", &m); code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	if m.ExactDiameter == nil || *m.ExactDiameter != polled.Result.Diameter {
		t.Fatalf("metrics exact diameter %v, want %d", m.ExactDiameter, polled.Result.Diameter)
	}
}

// TestProfileSubmitRunsSmallJob pins the submit answer: the job runs on
// the submit, which answers 200 with the final snapshot, not cached, and a
// poll of the job answers the same bytes. A done result equals a direct
// ExactProfile; a failed one carries the build error.
func TestProfileSubmitRunsSmallJob(t *testing.T) {
	s := newTestServer()
	defer s.Close()
	cases := []struct {
		query  string
		key    Key
		status JobStatus
	}{
		{"family=MS&l=2&n=3", msKey(2, 3), JobDone},   // k = 7
		{"family=MS&l=0&n=0", msKey(0, 0), JobFailed}, // k = 1: no topology
	}
	for _, tc := range cases {
		w := serve(s, "/v1/profile?"+tc.query, "")
		var resp ProfileResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("submit %s: %v", tc.query, err)
		}
		if w.Code != http.StatusOK || resp.Status != string(tc.status) || resp.Cached {
			t.Fatalf("submit %s = %d %s, want 200 with a %s, uncached snapshot", tc.query, w.Code, w.Body.String(), tc.status)
		}
		if poll := serve(s, "/v1/profile?id="+resp.JobID, ""); poll.Code != http.StatusOK || !bytes.Equal(poll.Body.Bytes(), w.Body.Bytes()) {
			t.Fatalf("poll of %s = %d %s, want the submit's answer %s", resp.JobID, poll.Code, poll.Body.String(), w.Body.String())
		}
		nw, err := topology.New(tc.key.Family, tc.key.L, tc.key.N)
		if tc.status == JobFailed {
			if err == nil || resp.Error != err.Error() {
				t.Fatalf("submit %s failed with %q, want the build error %v", tc.query, resp.Error, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		want, err := nw.Graph().ExactProfile()
		if err != nil {
			t.Fatal(err)
		}
		got := resp.Result
		if got == nil || got.Diameter != want.Eccentricity || got.AvgDistance != want.Mean ||
			got.Nodes != want.Reachable || !slices.Equal(got.Histogram, want.Histogram) {
			t.Fatalf("submit %s result %+v, direct ExactProfile %+v", tc.query, got, want)
		}
	}
	if st := s.jobs.Stats(); st.Submitted != 2 || st.Completed != 1 || st.Failed != 1 {
		t.Fatalf("stats %+v, want Submitted=2 Completed=1 Failed=1", st)
	}
}

// TestProfileSubmitSmallJobBesideFullQueue fills the write-back runner and
// requires a k = 7 submit to answer done regardless, since its job needs
// no runner worker; the write-back it hands over is refused, skipped and
// counted on /statsz and /metricsz.
func TestProfileSubmitSmallJobBesideFullQueue(t *testing.T) {
	s := newStoreServer(t, t.TempDir(), nil)
	defer s.Close()
	// One blocker taken by the worker, then fillers until the queue
	// refuses. The fillers go in only once the worker has taken the
	// blocker. All are released before the deferred Close waits on them.
	release, started := make(chan struct{}), make(chan struct{})
	defer close(release)
	if !s.jobs.runner.Submit(func() { close(started); <-release }) {
		t.Fatal("blocker rejected")
	}
	<-started
	for s.jobs.runner.Submit(func() { <-release }) {
	}
	var resp ProfileResponse
	if code := do(t, s, http.MethodGet, "/v1/profile?family=MS&l=2&n=3", "", &resp); code != http.StatusOK || resp.Status != string(JobDone) {
		t.Fatalf("k = 7 submit on a full queue = %d %+v, want 200 done", code, resp)
	}
	var st StatsResponse
	if code := do(t, s, http.MethodGet, "/statsz", "", &st); code != http.StatusOK {
		t.Fatalf("/statsz = %d", code)
	}
	if st.Jobs.Completed != 1 || st.Jobs.WriteBacksSkipped != 1 {
		t.Fatalf("/statsz jobs %+v, want Completed=1 WriteBacksSkipped=1", st.Jobs)
	}
	if st.Store == nil || st.Store.Writes != 0 {
		t.Fatalf("/statsz store %+v, want no write", st.Store)
	}
	lines := scrapeMetricsz(t, s)
	for _, name := range []string{"scgd_jobs_completed_total", "scgd_store_writeback_skipped_total"} {
		if v := metricValue(t, lines, name); v != 1 {
			t.Fatalf("%s = %v, want 1", name, v)
		}
	}
}

// TestProfileSubmitCoalescesSmallJob holds a cold k = 7 key's build open
// while 64 submits of the key arrive: its profile is built once, and every
// submit answers 200 done with the one job's snapshot, under its ID.
func TestProfileSubmitCoalescesSmallJob(t *testing.T) {
	s := newTestServer()
	defer s.Close()
	key := msKey(2, 3)
	release := holdNetwork(t, s.cache, key)
	before := s.cache.Stats().Builds
	const callers = 64
	codes := make([]int, callers)
	resps := make([]ProfileResponse, callers)
	var g pool.Group
	for i := range callers {
		g.Go(func() {
			w := serve(s, "/v1/profile?family=MS&l=2&n=3", "")
			codes[i] = w.Code
			if err := json.Unmarshal(w.Body.Bytes(), &resps[i]); err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
		})
	}
	waitFor(t, "every other submit joins the first one's job", func() bool { return s.jobs.Stats().Coalesced == callers-1 })
	release()
	g.Wait()
	if builds := s.cache.Stats().Builds - before; builds != 1 {
		t.Fatalf("%d profile builds for one cold key under %d submits, want 1", builds, callers)
	}
	for i, r := range resps {
		if codes[i] != http.StatusOK || r.Status != string(JobDone) || r.Cached || r.JobID != resps[0].JobID {
			t.Fatalf("caller %d: %d %+v, want 200 done on %s", i, codes[i], r, resps[0].JobID)
		}
	}
	if st := s.jobs.Stats(); st.Submitted != 1 || st.Coalesced != callers-1 {
		t.Fatalf("stats %+v, want Submitted=1 Coalesced=%d", st, callers-1)
	}
}

// TestProfileBuildsBoundedBySlots sends concurrent cold submits of distinct
// k = 10 keys (k = 8 under -short and -race) to a server with two build
// slots. Every submit answers 200 done, and the jobs' slow-log records,
// which span each build, never overlap more than two at a time. The test
// logs the run's peak heap beside one build's.
func TestProfileBuildsBoundedBySlots(t *testing.T) {
	const slots = 2
	families := []topology.Family{topology.MS, topology.RS, topology.RR, topology.MR, topology.CompleteRS, topology.CompleteRR}
	l, n := 3, 3 // k = 10
	if testing.Short() || raceEnabled {
		l, n = 7, 1 // k = 8
	}
	query := func(fam topology.Family) string {
		return fmt.Sprintf("/v1/profile?family=%s&l=%d&n=%d", fam, l, n)
	}
	submitAll := func(fams []topology.Family) (peak uint64, slow *syncBuilder) {
		slow = &syncBuilder{}
		s := New(Config{ProfileWorkers: slots, SlowLog: slow, RequestTimeout: time.Minute, SampleInterval: -1})
		defer s.Close()
		runtime.GC()
		stop := sampleHeapPeak(&peak)
		var g pool.Group
		for _, fam := range fams {
			g.Go(func() {
				w := serve(s, query(fam), "")
				var resp ProfileResponse
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || w.Code != http.StatusOK || resp.Status != string(JobDone) {
					t.Errorf("%s: %d %s, want 200 done", query(fam), w.Code, w.Body.String())
				}
			})
		}
		g.Wait()
		stop()
		return peak, slow
	}
	peak, slow := submitAll(families)
	type edge struct {
		at    time.Time
		delta int
	}
	var edges []edge
	for _, line := range strings.Split(strings.TrimSpace(slow.String()), "\n") {
		var rec SlowRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad slow record %q: %v", line, err)
		}
		if rec.Endpoint != jobEndpoint {
			continue
		}
		start, err := time.Parse(time.RFC3339Nano, rec.Time)
		if err != nil {
			t.Fatal(err)
		}
		edges = append(edges, edge{start, 1}, edge{start.Add(time.Duration(rec.DurationUS) * time.Microsecond), -1})
	}
	if len(edges) != 2*len(families) {
		t.Fatalf("%d job records, want %d", len(edges)/2, len(families))
	}
	slices.SortFunc(edges, func(a, b edge) int {
		if c := a.at.Compare(b.at); c != 0 {
			return c
		}
		return a.delta - b.delta // an end before a start at the same instant
	})
	most, now := 0, 0
	for _, e := range edges {
		now += e.delta
		most = max(most, now)
	}
	if most > slots {
		t.Fatalf("%d builds ran at once, want at most %d", most, slots)
	}
	one, _ := submitAll(families[:1])
	t.Logf("%d submits on %d slots (k = %d): at most %d builds at once, peak heap %.1f MiB; one build alone: %.1f MiB",
		len(families), slots, l*n+1, most, float64(peak)/(1<<20), float64(one)/(1<<20))
}

// sampleHeapPeak records the largest live heap it sees, read every 100 µs
// from runtime/metrics, into peak until the returned stop runs.
func sampleHeapPeak(peak *uint64) (stop func()) {
	done := make(chan struct{})
	var g pool.Group
	g.Go(func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		for {
			metrics.Read(sample)
			*peak = max(*peak, sample[0].Value.Uint64())
			select {
			case <-done:
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	})
	return func() {
		close(done)
		g.Wait()
	}
}

// TestRouteHTTPCoalescing drives the acceptance criterion end to end: 64
// concurrent cold HTTP requests materialize the topology exactly once.
func TestRouteHTTPCoalescing(t *testing.T) {
	s := newTestServer()
	defer s.Close()
	const callers = 64
	codes := make([]int, callers)
	pool.Each(callers, callers, func(i int) {
		r := httptest.NewRequest(http.MethodGet, "/v1/route?family=RS&l=2&n=3&src=2314567&dst=7654321", nil)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		codes[i] = w.Code
	})
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("caller %d got %d", i, code)
		}
	}
	st := s.Cache().Stats()
	if st.Builds != 1 {
		t.Fatalf("Builds=%d for one cold key under 64 concurrent requests, want 1", st.Builds)
	}
	if st.Hits+st.Coalesced != callers-1 {
		t.Fatalf("Hits=%d Coalesced=%d, want them to sum to %d", st.Hits, st.Coalesced, callers-1)
	}
}

func TestGateShedsExcessLoad(t *testing.T) {
	s := New(Config{MaxInflight: 1, RequestTimeout: 5 * time.Second})
	defer s.Close()
	// Occupy the single route slot directly, then watch a request bounce.
	route := s.eps[0] // registered first, so the dispatch table tries it first
	if route.name != "/v1/route" {
		t.Fatalf("first endpoint %q, want /v1/route", route.name)
	}
	gate := route.gate
	if !gate.TryEnter() {
		t.Fatal("fresh gate refused entry")
	}
	var e ErrorResponse
	if code := do(t, s, http.MethodGet, "/v1/route?family=MS&l=2&n=3&src=1234567&dst=7654321", "", &e); code != http.StatusServiceUnavailable {
		t.Fatalf("saturated endpoint = %d, want 503", code)
	}
	gate.Leave()
	if code := do(t, s, http.MethodGet, "/v1/route?family=MS&l=2&n=3&src=1234567&dst=7654321", "", nil); code != http.StatusOK {
		t.Fatalf("after release = %d, want 200", code)
	}
	st := s.Stats()
	ep := st.Endpoints["/v1/route"]
	if ep.Rejected != 1 {
		t.Fatalf("rejected=%d, want 1", ep.Rejected)
	}
}

func TestStatszCountsTraffic(t *testing.T) {
	s := newTestServer()
	defer s.Close()
	for i := 0; i < 3; i++ {
		do(t, s, http.MethodGet, "/v1/metrics?family=MS&l=2&n=3", "", nil)
	}
	do(t, s, http.MethodGet, "/v1/metrics?family=nope", "", nil)
	var st StatsResponse
	if code := do(t, s, http.MethodGet, "/statsz", "", &st); code != http.StatusOK {
		t.Fatalf("/statsz = %d", code)
	}
	ep, ok := st.Endpoints["/v1/metrics"]
	if !ok {
		t.Fatalf("statsz lacks /v1/metrics: %+v", st.Endpoints)
	}
	if ep.Requests != 4 || ep.Errors != 1 {
		t.Fatalf("requests=%d errors=%d, want 4 and 1", ep.Requests, ep.Errors)
	}
	if ep.Latency.Count != 4 {
		t.Fatalf("latency count %d, want 4", ep.Latency.Count)
	}
	if st.Cache.Builds != 1 {
		t.Fatalf("cache builds %d, want 1 (one instance, repeated hits)", st.Cache.Builds)
	}
}

func TestAccessLogRecords(t *testing.T) {
	var buf strings.Builder
	s := New(Config{AccessLog: &buf, RequestTimeout: 5 * time.Second})
	defer s.Close()
	do(t, s, http.MethodGet, "/healthz", "", nil)
	do(t, s, http.MethodGet, "/v1/metrics?family=MS&l=2&n=3", "", nil)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d access records, want 2:\n%s", len(lines), buf.String())
	}
	var rec AccessRecord
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatalf("bad NDJSON record: %v", err)
	}
	if rec.Endpoint != "/v1/metrics" || rec.Status != http.StatusOK || rec.Method != http.MethodGet {
		t.Fatalf("record %+v", rec)
	}
}

// TestRunGracefulShutdown exercises the full daemon lifecycle: serve over a
// real listener, then cancel the context and require a clean drain.
func TestRunGracefulShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := newTestServer()
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- Run(ctx, ln, s, 10*time.Second) }()

	base := "http://" + ln.Addr().String()
	resp, err := http.Get(base + "/v1/route?family=MS&l=2&n=3&src=2314567&dst=7654321")
	if err != nil {
		t.Fatalf("live request: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live request = %d", resp.StatusCode)
	}
	// Leave a profile job running across the shutdown boundary: its build
	// is held open until Run has begun to drain, and its submit must
	// still get its answer.
	release := holdNetwork(t, s.cache, msKey(7, 1))
	profile := make(chan int, 1)
	go func() {
		resp, err := http.Get(base + "/v1/profile?family=MS&l=7&n=1")
		if err != nil {
			profile <- 0
			return
		}
		_ = resp.Body.Close()
		profile <- resp.StatusCode
	}()
	waitFor(t, "the profile job runs", func() bool { return s.jobs.Stats().Running == 1 })
	cancel()
	time.Sleep(10 * time.Millisecond)
	release()
	if code := <-profile; code != http.StatusOK {
		t.Fatalf("profile submit across shutdown = %d, want 200", code)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run returned %v, want a clean drain", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}
