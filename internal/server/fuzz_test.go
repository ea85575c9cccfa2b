package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"
)

// FuzzRouteRequest hardens the v1 decoders: no query string or JSON body,
// however malformed, may panic a handler or surface as a 5xx — bad input
// is always a clean 4xx with a JSON error payload. Each query goes to
// /v1/route, /v1/metrics and /v1/neighbors, and the shared copy-free query
// decoder must return exactly what url.ParseQuery(q).Get does. The server
// is shared across iterations, as in production; MaxK keeps the fuzzer
// from discovering "valid but enormous" instances and turning the harness
// into a topology benchmark.
func FuzzRouteRequest(f *testing.F) {
	f.Add("family=MS&l=2&n=3&src=2314567&dst=7654321", "")
	f.Add("family=star&n=3&src=3214&dst=1234", "")
	f.Add("family=nope&l=2&n=3", "")
	f.Add("family=MS&l=-1&n=99&src=1&dst=2", "")
	f.Add("family=MS&l=2&n=3&src=1134567&dst=7654321", "")
	f.Add("l=2&n=3&src=&dst=", "")
	f.Add("family=MS&l=99999999999999999999&n=3", "")
	f.Add("", `{"family":"MS","l":2,"n":3,"src":"2314567","dst":"7654321"}`)
	f.Add("", `{"family":"MS","l":2,"n":3,"src":"2314567"`)
	f.Add("", `{not json`)
	f.Add("", `{"family":"RS","l":1e9,"n":3}`)
	f.Add("", `null`)
	f.Add("%zz=&&&=%%", "\x00\xff")
	f.Add("family=MS&l=2&n=3&node=2314567", "")
	f.Add("node=1+2+3&family=star&n=2&family=MS&node=", "")
	f.Add("family=star;n=3&id=job-1&l=x", "")

	s := New(Config{
		CacheBytes:     32 << 20,
		MaxK:           7,
		RequestTimeout: 30 * time.Second,
	})
	defer s.Close()

	check := func(t *testing.T, r *http.Request, query, body string) {
		t.Helper()
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r) // a panic here fails the fuzz run
		if w.Code >= 500 {
			t.Fatalf("%s input (%q, %q) produced %d; malformed input must be a 4xx", r.URL.Path, query, body, w.Code)
		}
		if w.Code >= 400 {
			var e ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("%s input (%q, %q): %d without a JSON error payload: %q", r.URL.Path, query, body, w.Code, w.Body.String())
			}
		}
	}

	f.Fuzz(func(t *testing.T, query, body string) {
		if body != "" {
			check(t, httptest.NewRequest(http.MethodPost, "/v1/route", strings.NewReader(body)), query, body)
			return
		}
		vals, _ := url.ParseQuery(query)
		want := v1Query{
			family: vals.Get("family"), l: vals.Get("l"), n: vals.Get("n"),
			src: vals.Get("src"), dst: vals.Get("dst"), node: vals.Get("node"), id: vals.Get("id"),
		}
		if got := parseQuery(query); got != want {
			t.Fatalf("parseQuery(%q) = %+v, url.ParseQuery gives %+v", query, got, want)
		}
		for _, path := range []string{"/v1/route", "/v1/metrics", "/v1/neighbors"} {
			// Bytes a real connection could never deliver as a request
			// target are the transport's problem, not the handler's.
			u, err := url.ParseRequestURI(path + "?" + query)
			if err != nil {
				t.Skip("not a valid request target")
			}
			r := httptest.NewRequest(http.MethodGet, path, nil)
			r.URL = u
			check(t, r, query, body)
		}
	})
}
