package server

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestDispatchMatchesServeMux holds Server's dispatch table to the
// http.ServeMux it fronts: two servers in the same state get the same
// requests, one through its ServeHTTP and one through a bare ServeMux
// holding the same seven endpoints, and every answer must agree in
// status, body and headers (bar X-Request-Id and Date). The inputs cover
// each registered path under GET, HEAD and POST, and the spellings the
// table must leave to the mux: unclean, escaped, differently cased and
// unknown paths, an absolute-form target and a CONNECT.
func TestDispatchMatchesServeMux(t *testing.T) {
	cfg := Config{RequestTimeout: 30 * time.Second, SampleInterval: -1}
	s := New(cfg)
	defer s.Close()
	ref := New(cfg)
	defer ref.Close()
	mux := http.NewServeMux()
	for _, ep := range ref.eps {
		mux.HandleFunc(ep.name, func(w http.ResponseWriter, r *http.Request) { ref.serve(ep, w, r) })
	}
	if len(ref.eps) != 7 {
		t.Fatalf("%d registered endpoints, want 7", len(ref.eps))
	}

	const query = "?family=MS&l=2&n=3&src=2314567&dst=7654321&node=2314567"
	const body = `{"family":"MS","l":2,"n":3,"src":"2314567","dst":"7654321"}`
	type request struct{ method, target, body string }
	var reqs []request
	for _, ep := range ref.eps {
		reqs = append(reqs,
			request{http.MethodGet, ep.name + query, ""},
			request{http.MethodHead, ep.name + query, ""},
			request{http.MethodPost, ep.name, body},
			request{http.MethodPost, ep.name + query, ""},
		)
	}
	for _, target := range []string{
		"/v1/route/" + query,
		"//v1/route" + query,
		"/v1/./route" + query,
		"/V1/route" + query,
		"/v1/%72oute" + query,
		"/v1%2Froute" + query,
		"/v1/metrics/.." + query,
		"http://scgd.example/v1/route" + query,
		"http://scgd.example/healthz",
		"/nope",
		"/",
	} {
		reqs = append(reqs, request{http.MethodGet, target, ""})
	}
	reqs = append(reqs,
		request{http.MethodConnect, "/v1/route" + query, ""},
		request{http.MethodConnect, "/healthz", ""},
		request{http.MethodConnect, "scgd.example:443", ""},
		request{http.MethodOptions, "*", ""},
	)

	send := func(h http.Handler, rq request) *httptest.ResponseRecorder {
		r := httptest.NewRequest(rq.method, rq.target, strings.NewReader(rq.body))
		r.Header.Set("X-Request-Id", "dispatch-parity")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w
	}
	for _, rq := range reqs {
		got, want := send(s, rq), send(mux, rq)
		name := rq.method + " " + rq.target
		if got.Code != want.Code {
			t.Errorf("%s: status %d, ServeMux %d", name, got.Code, want.Code)
		}
		if g, w := comparableBody(got.Body.String()), comparableBody(want.Body.String()); g != w {
			t.Errorf("%s: body\n%s\nServeMux body\n%s", name, g, w)
		}
		if g, w := comparableHeader(got.Header()), comparableHeader(want.Header()); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: header %v, ServeMux %v", name, g, w)
		}
	}
}

// uptimeNumber matches the numbers of the /healthz, /statsz and /metricsz
// answers, whose uptimes, latencies and runtime gauges differ between two
// servers fed the same requests; latencyBucket, the /metricsz histogram
// buckets, which are listed only where a latency fell.
var (
	uptimeNumber  = regexp.MustCompile(`[0-9]+(\.[0-9]+)?(e[-+]?[0-9]+)?`)
	latencyBucket = regexp.MustCompile(`(?m)^scgd_http_request_duration_us_bucket\{.*\n`)
)

func comparableBody(b string) string {
	if strings.Contains(b, "uptime_seconds") {
		return uptimeNumber.ReplaceAllString(latencyBucket.ReplaceAllString(b, ""), "N")
	}
	return b
}

func comparableHeader(h http.Header) http.Header {
	h = h.Clone()
	h.Del("X-Request-Id")
	h.Del("Date")
	return h
}
