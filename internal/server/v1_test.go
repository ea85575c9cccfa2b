package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/perm"
	"repro/internal/topology"
)

// Allocation ceilings for one warm v1 GET through Handler().ServeHTTP, as
// MeasureServe counts them. Every such request pays two (ServeAllocs):
//
//   - 1: the request ID string telemetry.NewRequestID mints when the
//     client sent no X-Request-Id;
//   - 1: the one-element value slice the response header stores it in.
//
// A profile submit answered from a resident profile also records a job
// (ProfileSubmitAllocs): the Job itself and its ID string (2), plus the
// amortized growth of the job ledger's map and completion list, which the
// last 2 bound.
const (
	ServeAllocs         = 2
	ProfileSubmitAllocs = 6
)

// TestServeAllocs is the allocation budget of a warm v1 request through
// the whole middleware, measured as Run serves it (MeasureServe): at
// most ServeAllocs for route, metrics, neighbors and a job poll, at most
// ProfileSubmitAllocs for a cache-hit profile submit. A server with a
// slow log that no request reaches, so that every request takes and
// releases a span timeline, is held to the same ceilings: tracing must
// not allocate.
func TestServeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates inside sync.Pool and the instrumented handler")
	}
	t.Run("untraced", func(t *testing.T) { testServeAllocs(t, newHotServer(t)) })
	t.Run("traced", func(t *testing.T) {
		s := New(Config{
			RequestTimeout: 30 * time.Second,
			SampleInterval: -1,
			SlowLog:        io.Discard,
			SlowThreshold:  time.Hour,
		})
		t.Cleanup(s.Close)
		testServeAllocs(t, s)
	})
}

func testServeAllocs(t *testing.T, s *Server) {
	warmProfile(t, s, 6)
	fam, err := topology.ParseFamily("star")
	if err != nil {
		t.Fatal(err)
	}
	job, err := s.jobs.Submit(context.Background(), Key{Family: fam, L: 1, N: 6}, "")
	if err != nil || job.Status != JobDone {
		t.Fatalf("cache-hit submit = %+v, %v", job, err)
	}
	cases := []struct {
		name, target string
		ceiling      float64
	}{
		{"route", hotTarget, ServeAllocs},
		{"route with exact overlay", "/v1/route?family=star&n=6&src=2134567&dst=7654321", ServeAllocs},
		{"metrics", "/v1/metrics?family=MS&l=2&n=3", ServeAllocs},
		{"metrics with exact fields", "/v1/metrics?family=star&n=6", ServeAllocs},
		{"neighbors", "/v1/neighbors?family=MS&l=2&n=3&node=2314567", ServeAllocs},
		{"profile poll", "/v1/profile?id=" + job.ID, ServeAllocs},
		{"profile submit (cache hit)", "/v1/profile?family=star&n=6", ProfileSubmitAllocs},
	}
	const iters = 1000
	for _, tc := range cases {
		_, allocs, err := MeasureServe(s, tc.target, iters)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		t.Logf("%s: %.2f allocs/request (ceiling %.0f)", tc.name, allocs, tc.ceiling)
		if allocs > tc.ceiling {
			t.Errorf("%s (%s) allocates %.2f times per request (%.0f in %d requests), ceiling %.0f", tc.name, tc.target, allocs, allocs*iters, iters, tc.ceiling)
		}
	}
}

// wantMetrics builds the /v1/metrics document the way the reflective
// handler did: the reference the append encoder must match.
func wantMetrics(s *Server, key Key, nw *topology.Network) MetricsResponse {
	bound := nw.DiameterUpperBound()
	resp := MetricsResponse{
		Network:            nw.Name(),
		Family:             key.Family.String(),
		L:                  nw.L(),
		N:                  nw.N(),
		K:                  nw.K(),
		Nodes:              nw.Nodes(),
		Degree:             nw.Degree(),
		InterclusterDegree: nw.InterclusterDegree(),
		Undirected:         nw.Undirected(),
		DiameterBound:      bound,
		Cost:               metrics.DegreeDiameterCost(nw.Degree(), bound),
	}
	if pb, ok := topology.PaperDiameterBound(key.Family, nw.L(), nw.N()); ok {
		resp.PaperBound = &pb
	}
	resp.DL = universalDL(nw)
	if resp.DL > 0 {
		resp.AlphaBound = float64(bound) / resp.DL
	}
	if prof, ok := s.cache.CachedProfile(key); ok {
		d, avg := prof.Eccentricity, prof.Mean
		resp.ExactDiameter = &d
		resp.ExactAvgDistance = &avg
		if resp.DL > 0 {
			ae := float64(d) / resp.DL
			resp.AlphaExact = &ae
		}
	}
	return resp
}

// wantNeighbors builds the /v1/neighbors document the reflective way.
func wantNeighbors(nw *topology.Network, node perm.Perm) NeighborsResponse {
	set := nw.Graph().GeneratorSet()
	nbs := nw.Graph().Neighbors(node)
	out := make([]Neighbor, len(nbs))
	for i, nb := range nbs {
		out[i] = Neighbor{Move: set.At(i).Name(), Node: nb.String()}
	}
	return NeighborsResponse{Network: nw.Name(), K: nw.K(), Node: node.String(), Degree: nw.Degree(), Neighbors: out}
}

// wantProfile renders a job snapshot the reflective way.
func wantProfile(job Job, cached bool) ProfileResponse {
	resp := ProfileResponse{
		JobID:     job.ID,
		RequestID: job.ReqID,
		Network:   job.Key.String(),
		Status:    string(job.Status),
		Cached:    cached,
		Error:     job.Err,
	}
	if job.Result != nil {
		resp.Result = &ProfileResult{
			Diameter:    job.Result.Eccentricity,
			AvgDistance: job.Result.Mean,
			Nodes:       job.Result.Reachable,
			Histogram:   append([]int64(nil), job.Result.Histogram...),
		}
	}
	return resp
}

// jsonBody is writeJSON's rendering of v.
func jsonBody(v any) []byte {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, v)
	return rec.Body.Bytes()
}

// serve sends one GET with the given X-Request-Id ("" mints one).
func serve(s *Server, target, reqID string) *httptest.ResponseRecorder {
	r := httptest.NewRequest(http.MethodGet, target, nil)
	if reqID != "" {
		r.Header.Set("X-Request-Id", reqID)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	return w
}

func mustNetwork(t *testing.T, s *Server, key Key) *topology.Network {
	t.Helper()
	nw, err := s.cache.Network(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func checkBody(t *testing.T, what string, w *httptest.ResponseRecorder, wantStatus int, want []byte) {
	t.Helper()
	if w.Code != wantStatus {
		t.Fatalf("%s: status %d, want %d: %s", what, w.Code, wantStatus, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s: Content-Type %q", what, ct)
	}
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("%s: append encoding diverges from encoding/json:\ngot:  %q\nwant: %q", what, w.Body.String(), want)
	}
}

// TestV1BodyParity pins the metrics, neighbors and profile append encoders
// to the bytes the reflective writeJSON path wrote for the same answers:
// exact fields absent and present, paper_bound absent (RS) and present,
// k >= 10 labels, failed, done and cached profile answers and their polls,
// and request IDs that encoding/json escapes. TestRouteEncodeParity
// covers /v1/route.
func TestV1BodyParity(t *testing.T) {
	s := New(Config{ProfileWorkers: 1, RequestTimeout: 30 * time.Second, SampleInterval: -1})
	defer s.Close()
	keys := []struct {
		query string
		key   Key
	}{
		{"family=MS&l=2&n=3", Key{Family: topology.MS, L: 2, N: 3}},
		{"family=RS&l=2&n=3", Key{Family: topology.RS, L: 2, N: 3}},
		{"family=complete-RIS&l=3&n=2", Key{Family: topology.CompleteRIS, L: 3, N: 2}},
		{"family=rotator&n=5", Key{Family: topology.Rotator, L: 1, N: 5}},
		{"family=bubble-sort&n=4", Key{Family: topology.BubbleSort, L: 1, N: 4}},
		{"family=star&l=7&n=9", Key{Family: topology.Star, L: 1, N: 9}}, // k = 10 labels
	}
	for round := 0; round < 2; round++ {
		for _, kc := range keys {
			nw := mustNetwork(t, s, kc.key)
			checkBody(t, "metrics "+kc.query, serve(s, "/v1/metrics?"+kc.query, ""), http.StatusOK, jsonBody(wantMetrics(s, kc.key, nw)))
			k := nw.K()
			rev := make(perm.Perm, k)
			for i := range rev {
				rev[i] = k - i
			}
			for _, node := range []perm.Perm{perm.Identity(k), rev} {
				label := strings.ReplaceAll(node.String(), " ", "+")
				checkBody(t, "neighbors "+kc.query+" "+label, serve(s, "/v1/neighbors?"+kc.query+"&node="+label, ""),
					http.StatusOK, jsonBody(wantNeighbors(nw, node)))
			}
			if round == 0 && k <= 7 {
				// The second round sees the exact fields.
				if _, err := s.cache.Profile(context.Background(), kc.key); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// Profile answers at k = 8: a submit answers with the job's final
	// snapshot, and a poll of the job with the same.
	submits := []struct {
		query, reqID string
		status       JobStatus
	}{
		{"family=MS&l=7&n=1", "a<b>&c", JobDone},
		{"family=MS&l=1&n=7", "fail-<1>", JobFailed}, // no topology
	}
	for _, sc := range submits {
		w := serve(s, "/v1/profile?"+sc.query, sc.reqID)
		var resp ProfileResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("submit %s: %v", sc.query, err)
		}
		job, err := s.jobs.Get(resp.JobID)
		if err != nil || job.Status != sc.status || (job.Status == JobFailed) != (job.Err != "") {
			t.Fatalf("submit %s: job %+v, %v; want it %s", sc.query, job, err, sc.status)
		}
		checkBody(t, "submit "+sc.query, w, http.StatusOK, jsonBody(wantProfile(job, false)))
		checkBody(t, "poll "+sc.query, serve(s, "/v1/profile?id="+job.ID, ""), http.StatusOK, jsonBody(wantProfile(job, false)))
	}
	// Cached submits, with minted and escaped request IDs.
	for _, reqID := range []string{"", "x>y&z<"} {
		w := serve(s, "/v1/profile?family=MS&l=2&n=3", reqID)
		var resp ProfileResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		job, err := s.jobs.Get(resp.JobID)
		if err != nil || job.Status != JobDone {
			t.Fatalf("cached submit: job %+v, %v", job, err)
		}
		checkBody(t, "cached submit", w, http.StatusOK, jsonBody(wantProfile(job, true)))
	}
}

// TestEncodersMatchEncodingJSON drives the append encoders with values the
// served instances never produce: e-notation and negative-zero floats,
// absent pointers, an empty histogram, and strings encoding/json escapes.
func TestEncodersMatchEncodingJSON(t *testing.T) {
	pb, d := 9, 7
	floats := []float64{0, math.Copysign(0, -1), 1, 2.5, 1.0 / 3, 1e-6, 9.99e-7, 1e-7, 123e-20, 1e20, 1e21, 3.5e22, -4e-9, math.MaxFloat64, math.SmallestNonzeroFloat64}
	for _, f := range floats {
		f, f2 := f, -f/7
		for _, m := range []MetricsResponse{
			{Network: "MS(2,3)", Family: "MS", L: 2, N: 3, K: 7, Nodes: 5040, Degree: 4, DL: f, AlphaBound: f2},
			{Network: "a\"b<c>", Family: "x&y", Undirected: true, PaperBound: &pb, DL: f2, AlphaBound: f, Cost: -1,
				ExactDiameter: &d, ExactAvgDistance: &f, AlphaExact: &f2},
		} {
			if got, want := appendMetricsResponse(nil, &m), jsonBody(m); !bytes.Equal(got, want) {
				t.Fatalf("metrics %+v:\ngot:  %q\nwant: %q", m, got, want)
			}
		}
	}
	strs := []string{"", "job-1", "a<b>&c", `q"uote\back`, "tab\tnl\ncr\rbs\bff\f", "\x00\x1f\x7f", "é ü 中", "\u2028\u2029", "bad\xffutf8\xc3"}
	results := []*core.BFSResult{nil,
		{Eccentricity: 3, Mean: 1.5, Reachable: 6, Histogram: []int64{1, 2, 3}},
		{Eccentricity: 0, Mean: 1e-9, Reachable: 1},
	}
	for i, s := range strs {
		for j, res := range results {
			for _, cached := range []bool{false, true} {
				job := Job{
					ID: "job-" + strconv.Itoa(i), ReqID: s, Key: Key{Family: topology.CompleteRS, L: i, N: j},
					Status: JobStatus([]string{"queued", "running", "done", "failed"}[(i+j)%4]),
					Err:    strs[(i+j)%len(strs)], Result: res,
				}
				if got, want := appendProfileResponse(nil, &job, cached), jsonBody(wantProfile(job, cached)); !bytes.Equal(got, want) {
					t.Fatalf("profile %+v cached=%v:\ngot:  %q\nwant: %q", job, cached, got, want)
				}
			}
		}
		if got, want := appendJSONString(nil, s), jsonBody(s); !bytes.Equal(append(got, '\n'), want) {
			t.Fatalf("string %q: got %q, want %q", s, got, want)
		}
	}
}

// TestColdBuildDeadline504 holds a cold network's build in flight and
// requires every endpoint that waits on it to give up with a 504 and a JSON
// error body once RequestTimeout has passed since the request started, or
// at once when the client has canceled the request.
func TestColdBuildDeadline504(t *testing.T) {
	const timeout = 50 * time.Millisecond
	var access syncBuilder
	s := New(Config{RequestTimeout: timeout, SampleInterval: -1, AccessLog: &access})
	defer s.Close()
	key := msKey(2, 3)
	started, release := make(chan struct{}), make(chan struct{})
	built := make(chan error, 1)
	go func() {
		_, err := s.cache.getOrBuild(context.Background(), cacheKey{kindNetwork, key}, func() (any, int64, error) {
			close(started)
			<-release
			return nil, 0, errors.New("build abandoned by the test")
		})
		built <- err
	}()
	<-started
	defer func() {
		close(release)
		<-built
	}()

	targets := []string{
		"/v1/route?family=MS&l=2&n=3&src=2314567&dst=7654321",
		"/v1/metrics?family=MS&l=2&n=3",
		"/v1/neighbors?family=MS&l=2&n=3&node=1234567",
	}
	for _, target := range targets {
		t0 := time.Now()
		w := serve(s, target, "")
		elapsed := time.Since(t0)
		if w.Code != http.StatusGatewayTimeout {
			t.Fatalf("%s: status %d, want 504: %s", target, w.Code, w.Body.String())
		}
		var e ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("%s: 504 without a JSON error body: %q", target, w.Body.String())
		}
		if elapsed < timeout || elapsed > timeout+2*time.Second {
			t.Fatalf("%s: answered after %v, want about %v", target, elapsed, timeout)
		}
	}
	// The server's own clock starts at request start, so the logged service
	// time covers the whole deadline.
	lines := strings.Split(strings.TrimSpace(access.String()), "\n")
	if len(lines) != len(targets) {
		t.Fatalf("%d access records, want %d", len(lines), len(targets))
	}
	// A client that has gone away ends the wait at once.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := httptest.NewRecorder()
	t0 := time.Now()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, targets[1], nil).WithContext(ctx))
	if elapsed := time.Since(t0); w.Code != http.StatusGatewayTimeout || elapsed >= timeout {
		t.Fatalf("canceled request: status %d after %v, want 504 before the %v deadline", w.Code, elapsed, timeout)
	}
	for _, line := range lines {
		var rec AccessRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Status != http.StatusGatewayTimeout || rec.DurationUS < timeout.Microseconds() || rec.DurationUS > (timeout+2*time.Second).Microseconds() {
			t.Fatalf("access record %+v, want a 504 lasting about %v", rec, timeout)
		}
	}
}
