package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/topology"
)

func newHotServer(t testing.TB) *Server {
	t.Helper()
	s := New(Config{
		RequestTimeout: 30 * time.Second,
		SampleInterval: -1,
	})
	t.Cleanup(s.Close)
	return s
}

// warmProfile makes the exact star(k=n+1) profile resident so warm routes
// carry the exact_distance and stretch overlay.
func warmProfile(t testing.TB, s *Server, n int) {
	t.Helper()
	fam, err := topology.ParseFamily("star")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.cache.profile(context.Background(), Key{Family: fam, L: 1, N: n}); err != nil {
		t.Fatal(err)
	}
}

const hotTarget = "/v1/route?family=MS&l=2&n=3&src=2314567&dst=7654321"

func warmHotPath(t testing.TB, s *Server, target string) (*nullResponseWriter, *http.Request, call) {
	t.Helper()
	r, err := http.NewRequest(http.MethodGet, target, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := call{deadline: time.Now().Add(s.cfg.RequestTimeout)}
	w := newNullResponseWriter()
	for i := 0; i < 64; i++ {
		if status := s.handleRoute(w, r, c); status != http.StatusOK {
			t.Fatalf("warm-up returned %d for %s", status, target)
		}
	}
	return w, r, c
}

// requireNoRouteAllocs drives iters warm requests for target through the
// route handler (MeasureRouteHot, at GOMAXPROCS 1) and fails unless their
// MemStats.Mallocs delta is 0 in total: a mean truncated to an integer,
// as testing.AllocsPerRun reports it, reads 0 for an amortized append that
// allocates once every few calls.
func requireNoRouteAllocs(t *testing.T, s *Server, target string) {
	t.Helper()
	const iters = 200
	_, allocs, err := MeasureRouteHot(s, target, iters)
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("warm %s handler allocates %.0f times in %d requests, want 0", target, allocs*iters, iters)
	}
}

// TestRouteHotAllocs is the zero-allocation contract of the warm route
// path: once the network is resident and the scratch pool is primed, the
// handler itself must not touch the heap.
func TestRouteHotAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates inside sync.Pool and the instrumented handler")
	}
	requireNoRouteAllocs(t, newHotServer(t), hotTarget)
}

// TestRouteHotAllocsWithProfile repeats the contract with a resident exact
// profile, which adds the distance overlay (exact_distance + stretch) to
// the encoded response.
func TestRouteHotAllocsWithProfile(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates inside sync.Pool and the instrumented handler")
	}
	s := newHotServer(t)
	warmProfile(t, s, 4)
	requireNoRouteAllocs(t, s, "/v1/route?family=star&n=4&src=21345&dst=53421")
}

// TestRouteEncodeParity pins the hand-rolled route encoder to encoding/json:
// for representative warm responses (with and without the exact-distance
// overlay, with k >= 10 space-separated labels, with an empty move list) the
// served body must be byte-identical to writeJSON's rendering of the same
// document.
func TestRouteEncodeParity(t *testing.T) {
	s := newHotServer(t)
	warmProfile(t, s, 4)
	targets := []string{
		hotTarget,
		"/v1/route?family=star&n=4&src=21345&dst=53421",                                  // exact_distance + stretch
		"/v1/route?family=star&n=4&src=21345&dst=21345",                                  // hops 0, moves [], exact 0, no stretch
		"/v1/route?family=rotator&n=9&src=10+3+1+2+9+8+7+6+5+4&dst=1+2+3+4+5+6+7+8+9+10", // k = 10 labels
	}
	for _, target := range targets {
		r := httptest.NewRequest(http.MethodGet, target, nil)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", target, w.Code, w.Body.String())
		}
		var resp RouteResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: body is not a RouteResponse: %v", target, err)
		}
		if !resp.Verified {
			t.Fatalf("%s: verified false", target)
		}
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, resp)
		if !bytes.Equal(w.Body.Bytes(), rec.Body.Bytes()) {
			t.Fatalf("%s: hand-rolled encoding diverges from encoding/json:\ngot:  %q\nwant: %q",
				target, w.Body.String(), rec.Body.String())
		}
	}
}

// TestRouteScratchReuseDeterministic replays one request through the pooled
// scratch many times and requires byte-identical bodies: buffer reuse must
// never leak a previous request's state into a response.
func TestRouteScratchReuseDeterministic(t *testing.T) {
	s := newHotServer(t)
	var first []byte
	for i := 0; i < 50; i++ {
		r := httptest.NewRequest(http.MethodGet, hotTarget, nil)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("iteration %d: status %d", i, w.Code)
		}
		if first == nil {
			first = append([]byte(nil), w.Body.Bytes()...)
		} else if !bytes.Equal(first, w.Body.Bytes()) {
			t.Fatalf("iteration %d produced a different body", i)
		}
	}
	// Interleave a different instance to dirty the scratch between hits.
	other := httptest.NewRequest(http.MethodGet, "/v1/route?family=star&n=6&src=2134567&dst=7654321", nil)
	ow := httptest.NewRecorder()
	s.Handler().ServeHTTP(ow, other)
	if ow.Code != http.StatusOK {
		t.Fatalf("interleaved request: status %d", ow.Code)
	}
	r := httptest.NewRequest(http.MethodGet, hotTarget, nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if !bytes.Equal(first, w.Body.Bytes()) {
		t.Fatal("scratch reuse after an interleaved instance changed the response")
	}
}

// BenchmarkRouteHot measures the handler alone on the warm path; the
// benchreport route/hot entry times the same loop, and TestRouteHotAllocs
// holds it to zero allocations.
func BenchmarkRouteHot(b *testing.B) {
	s := newHotServer(b)
	w, r, c := warmHotPath(b, s, hotTarget)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.handleRoute(w, r, c)
	}
}
