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

	reqs := dispatchRequests(ref.eps)
	send := func(h http.Handler, rq dispatchRequest) *httptest.ResponseRecorder {
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

// dispatchRequest is one request of the dispatch tests.
type dispatchRequest struct{ method, target, body string }

// dispatchRequests lists each registered path under GET, HEAD and POST,
// and the spellings the dispatch table must leave to the mux: unclean,
// escaped, differently cased and unknown paths, absolute-form targets, a
// CONNECT and "OPTIONS *".
func dispatchRequests(eps []*endpoint) []dispatchRequest {
	const query = "?family=MS&l=2&n=3&src=2314567&dst=7654321&node=2314567"
	const body = `{"family":"MS","l":2,"n":3,"src":"2314567","dst":"7654321"}`
	var reqs []dispatchRequest
	for _, ep := range eps {
		reqs = append(reqs,
			dispatchRequest{http.MethodGet, ep.name + query, ""},
			dispatchRequest{http.MethodHead, ep.name + query, ""},
			dispatchRequest{http.MethodPost, ep.name, body},
			dispatchRequest{http.MethodPost, ep.name + query, ""},
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
		reqs = append(reqs, dispatchRequest{http.MethodGet, target, ""})
	}
	return append(reqs,
		dispatchRequest{http.MethodConnect, "/v1/route" + query, ""},
		dispatchRequest{http.MethodConnect, "/healthz", ""},
		dispatchRequest{http.MethodConnect, "scgd.example:443", ""},
		dispatchRequest{http.MethodOptions, "*", ""},
	)
}

// TestHandlersLeaveRequestHeader holds the invariant Run's header-block
// reuse rests on (reuseHeader): no endpoint and no request the mux answers
// itself writes the request's header map, so the map a connection parsed
// still holds that parse when the next request repeats the block. Every
// dispatch-test request, and answers that take other paths through the
// handlers (bad labels and parameters, a cold build, a profile submit and
// poll, an unknown job, a route with the exact-distance overlay), goes
// through ServeHTTP with a header map like the transport's, once with a
// valid X-Request-Id and once with an invalid one, and the map must come
// back as it went in.
func TestHandlersLeaveRequestHeader(t *testing.T) {
	s := New(Config{RequestTimeout: 30 * time.Second, SampleInterval: -1, MaxK: 9})
	defer s.Close()
	reqs := dispatchRequests(s.eps)
	for _, target := range []string{
		"/v1/route?family=MS&l=2&n=3&src=1134567&dst=7654321",
		"/v1/route?family=MS&l=2&n=3&src=2314567",
		"/v1/route?family=nope&l=2&n=3",
		"/v1/route?family=MS&l=5&n=5",
		"/v1/route?family=MS&l=2&n=2&src=23145&dst=54321",
		"/v1/neighbors?family=MS&l=2&n=3&node=12",
		"/v1/metrics?family=MS&l=x",
		"/v1/profile?family=star&n=4",
		"/v1/profile?id=job-1",
		"/v1/profile?id=job-999",
		"/v1/route?family=star&n=4&src=21345&dst=53421",
	} {
		reqs = append(reqs, dispatchRequest{http.MethodGet, target, ""})
	}
	reqs = append(reqs, dispatchRequest{http.MethodPost, "/v1/route", `{"family":`})
	for _, id := range []string{"header-parity", "not a valid id"} {
		for _, rq := range reqs {
			r := httptest.NewRequest(rq.method, rq.target, strings.NewReader(rq.body))
			h := r.Header
			delete(h, "Host") // the transport takes Host out of the map
			h["User-Agent"] = []string{"Go-http-client/1.1"}
			h["Accept-Encoding"] = []string{"gzip"}
			h["Accept"] = []string{"*/*", "application/json"}
			h["X-Request-Id"] = []string{id}
			want := h.Clone()
			s.ServeHTTP(httptest.NewRecorder(), r)
			if !reflect.DeepEqual(h, want) {
				t.Errorf("%s %s (X-Request-Id %q): request header %v after the handler, %v before", rq.method, rq.target, id, h, want)
			}
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
