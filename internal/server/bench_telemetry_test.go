package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// benchmarkServerStack drives warm-cache /v1/route requests through the
// full middleware stack, with a fresh httptest request and recorder per
// iteration, which allocate more than Run's connections do per request
// (MeasureServe times middleware and handler the way Run serves them,
// against the ServeAllocs ceiling; BenchmarkRouteHot in
// route_hot_test.go measures the handler itself, which must not allocate).
// The telemetry-on and telemetry-off variants differ
// only in Config.DisableTracing; cmd/benchreport runs the same pair
// in-process and fails the build if the allocs/op delta is nonzero (pooled
// traces and always-on atomic counters make tracing allocation-free).
func benchmarkServerStack(b *testing.B, disableTracing bool) {
	s := New(Config{
		RequestTimeout: 30 * time.Second,
		DisableTracing: disableTracing,
		SampleInterval: -1,
	})
	defer s.Close()
	const target = "/v1/route?family=MS&l=2&n=3&src=2314567&dst=7654321"
	warm := httptest.NewRequest(http.MethodGet, target, nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, warm)
	if w.Code != http.StatusOK {
		b.Fatalf("warm-up = %d: %s", w.Code, w.Body.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := httptest.NewRequest(http.MethodGet, target, nil)
		s.Handler().ServeHTTP(httptest.NewRecorder(), r)
	}
}

func BenchmarkServerStackTelemetryOn(b *testing.B)  { benchmarkServerStack(b, false) }
func BenchmarkServerStackTelemetryOff(b *testing.B) { benchmarkServerStack(b, true) }
