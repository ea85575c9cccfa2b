package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/perm"
	"repro/internal/pool"
	"repro/internal/topology"
)

// startRun serves s with Run on a loopback listener and returns its
// address and a stop function that shuts Run down and returns its error.
func startRun(t *testing.T, s *Server, drain time.Duration) (addr string, stop func() error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var g pool.Group
	var runErr error
	g.Go(func() { runErr = Run(ctx, ln, s, drain) })
	stopped := false
	stop = func() error {
		if !stopped {
			stopped = true
			cancel()
			g.Wait()
		}
		return runErr
	}
	t.Cleanup(func() { _ = stop() })
	return ln.Addr().String(), stop
}

// routeTargets returns n warm-able /v1/route targets on MS(2,3), each with
// its own random pair.
func routeTargets(n int) []string {
	rng := perm.NewRNG(7)
	out := make([]string, n)
	for i := range out {
		out[i] = "/v1/route?family=MS&l=2&n=3&src=" + perm.Random(7, rng).String() + "&dst=" + perm.Random(7, rng).String()
	}
	return out
}

// ConnAllocs is the ceiling for a warm v1 GET served by Run over a
// keep-alive connection, as MeasureConn counts it: ServeAllocs, plus the
// request-target string the connection reads it into (RequestURI, which
// URL.Path and URL.RawQuery slice).
const ConnAllocs = ServeAllocs + 1

// TestConnAllocs is the allocation ceiling at the transport: a warm v1 GET
// served by Run over one keep-alive loopback connection, a different route
// on every request, allocates at most ConnAllocs times. The benchreport
// serve/conn-route entry times the same loop. The second run has MS(2,3)'s
// exact profile resident, so every answer also looks up its pair's
// distance (routeDistance) and carries exact_distance.
func TestConnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates inside sync.Pool and the instrumented handler")
	}
	for _, resident := range []bool{false, true} {
		t.Run(fmt.Sprintf("profile-resident=%v", resident), func(t *testing.T) {
			s := New(Config{RequestTimeout: 30 * time.Second, SampleInterval: -1})
			targets := routeTargets(256)
			if resident {
				fam, err := topology.ParseFamily("MS")
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := s.cache.profile(context.Background(), Key{Family: fam, L: 2, N: 3}); err != nil {
					t.Fatal(err)
				}
				for _, target := range targets {
					w := httptest.NewRecorder()
					s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
					if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"exact_distance"`) {
						t.Fatalf("%s: status %d without exact_distance: %s", target, w.Code, w.Body.String())
					}
				}
			}
			const iters = 2000
			_, allocs, err := MeasureConn(context.Background(), s, targets, iters)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%.4f allocs/request through Run (ceiling %d)", allocs, ConnAllocs)
			if allocs > ConnAllocs {
				t.Fatalf("a warm route through Run allocates %.2f times per request (%.0f in %d requests), ceiling %d", allocs, allocs*iters, iters, ConnAllocs)
			}
		})
	}
}

// BenchmarkReadRequest times the transport's parser on warm GET /v1/route
// requests as net/http's Transport sends them, read through conn.Read
// from a stream of 64 requests with distinct targets. "repeated" sends
// one header block throughout, so every request after the first may reuse
// its parse; "varying" carries a fresh X-Request-Id on every request, as
// scgbench's traced pass does, so none can.
func BenchmarkReadRequest(b *testing.B) {
	for _, bc := range []struct {
		name string
		id   func(i int) string
	}{
		{"repeated", func(int) string { return "" }},
		{"varying", func(i int) string { return "X-Request-Id: w0-op" + strconv.Itoa(1000+i) + "\r\n" }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var stream []byte
			for i, target := range routeTargets(64) {
				stream = append(stream, "GET "+target+" HTTP/1.1\r\nHost: 127.0.0.1:41234\r\nUser-Agent: Go-http-client/1.1\r\n"+bc.id(i)+"\r\n"...)
			}
			c := &conn{rwc: readerConn{r: &loopReader{data: stream}}, bw: bufio.NewWriter(io.Discard)}
			c.br = bufio.NewReaderSize(c, 4<<10)
			c.init(context.Background(), "")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.readRequest(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// loopReader reads data over and over.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.data[l.off:])
	l.off = (l.off + n) % len(l.data)
	return n, nil
}

// TestAppendDateFollowsTheClock: the Date a connection caches is the
// wall clock's current second whenever it is written, across the change
// of a second.
func TestAppendDateFollowsTheClock(t *testing.T) {
	var c conn
	for end := time.Now().Add(1100 * time.Millisecond); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		before := time.Now().UTC().Format(http.TimeFormat)
		got := string(c.appendDate())
		after := time.Now().UTC().Format(http.TimeFormat)
		if got != before && got != after {
			t.Fatalf("Date %q written between %q and %q", got, before, after)
		}
	}
}

// answer is what the conformance test compares of one response.
type answer struct {
	status                      int // -1: the connection ended without one
	body                        string
	ctype, connection, location string
	close, reqID, date          bool // close: the answer ends the connection
}

// exchange sends raw over a new connection to addr, reads answers until n
// final (non-1xx) responses have arrived or the connection ends, and then
// probes whether the connection still serves a request. With perLine it
// writes raw one line at a time, pausing between writes so that each
// arrives in its own read, as from a client typing or writing line by line.
func exchange(t *testing.T, addr, raw string, n int, head, perLine bool) (got []answer, open bool) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(20 * time.Second))
	var writer pool.Group
	defer writer.Wait()
	writer.Go(func() { // the server may answer and close before it has read everything
		if !perLine {
			_, _ = io.WriteString(nc, raw)
			return
		}
		for _, line := range strings.SplitAfter(raw, "\n") {
			if _, err := io.WriteString(nc, line); err != nil {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	})
	br := bufio.NewReader(nc)
	method := http.MethodGet
	if head {
		method = http.MethodHead
	}
	for finals := 0; finals < n; {
		a, ok := readAnswer(t, br, method)
		got = append(got, a)
		if !ok {
			return got, false
		}
		if a.status >= 200 {
			finals++
		}
	}
	return got, probe(nc, br)
}

// exchangeEach sends each of reqs over one new connection to addr, each
// once the answer to the one before has arrived, so that each arrives on
// its own as from a keep-alive client, and then probes whether the
// connection still serves a request.
func exchangeEach(t *testing.T, addr string, reqs []string) (got []answer, open bool) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(20 * time.Second))
	br := bufio.NewReader(nc)
	for _, raw := range reqs {
		if _, err := io.WriteString(nc, raw); err != nil {
			return append(got, answer{status: -1}), false
		}
		for {
			a, ok := readAnswer(t, br, http.MethodGet)
			got = append(got, a)
			if !ok {
				return got, false
			}
			if a.status >= 200 {
				break
			}
		}
	}
	return got, probe(nc, br)
}

// readAnswer reads one response to a request of the given method; ok is
// false when the connection ended without one.
func readAnswer(t *testing.T, br *bufio.Reader, method string) (a answer, ok bool) {
	t.Helper()
	resp, err := http.ReadResponse(br, &http.Request{Method: method})
	if err != nil {
		return answer{status: -1}, false
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading a %d body: %v", resp.StatusCode, err)
	}
	return answer{
		status: resp.StatusCode, body: string(body),
		ctype: resp.Header.Get("Content-Type"), connection: resp.Header.Get("Connection"),
		location: resp.Header.Get("Location"), close: resp.Close,
		reqID: resp.Header.Get("X-Request-Id") != "", date: resp.Header.Get("Date") != "",
	}, true
}

// probe reports whether the connection still serves a request.
func probe(nc net.Conn, br *bufio.Reader) bool {
	if _, err := io.WriteString(nc, "GET /healthz HTTP/1.1\r\nHost: probe\r\n\r\n"); err != nil {
		return false
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// echoRequest answers with what the server parsed of the request: method,
// target, protocol, Host, Close, ContentLength, the header map and the
// body. Registered on both servers of TestRunMatchesNetHTTP, it shows a
// header block reused where it should have been parsed again.
func echoRequest(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	fmt.Fprintf(w, "%s %s %s host=%q close=%v length=%d header=%v body=%q err=%v\n",
		r.Method, r.RequestURI, r.Proto, r.Host, r.Close, r.ContentLength, r.Header, body, err)
}

func chunk(body string) string {
	return strconv.FormatInt(int64(len(body)), 16) + "\r\n" + body + "\r\n0\r\n\r\n"
}

// TestRunMatchesNetHTTP sends the same bytes to the scgd handler served by
// net/http (httptest, the reference) and by Run, and requires the same
// answers: status, decoded body, Content-Type, Connection (which
// http.ReadResponse turns into Response.Close when it says close) and
// Location, the presence of X-Request-Id and Date, and whether the
// connection stays open. A handler panic, registered on both, must end only its connection.
func TestRunMatchesNetHTTP(t *testing.T) {
	const host = "Host: scgd\r\n"
	const metrics = "/v1/metrics?family=MS&l=2&n=3"
	post := `{"family":"MS","l":2,"n":3,"src":"2314567","dst":"7654321"}`
	postCL := "POST /v1/route HTTP/1.1\r\n" + host + "Content-Length: " + strconv.Itoa(len(post)) + "\r\n"
	// A keep-alive client's header block, and requests on one connection
	// that repeat it, change it a little, or frame a body. Each request of
	// a seq case is written once the answer before it has arrived.
	const block = host + "User-Agent: Go-http-client/1.1\r\nAccept-Encoding: gzip\r\n\r\n"
	echo := func(target, block string) string { return "GET " + target + " HTTP/1.1\r\n" + block }
	route := "/v1/route?family=MS&l=2&n=3&src=2314567&dst=7654321"
	idBlock := func(id string) string { return host + "X-Request-Id: " + id + "\r\nAccept: */*\r\n\r\n" }
	seqCases := []struct {
		name string
		seq  []string
	}{
		{"repeated block", []string{echo("/echo?1", block), echo("/echo?2", block), echo(route, block), echo("/echo?3", block)}},
		{"one byte of a value changed", []string{echo("/echo", idBlock("seq-1")), echo("/echo", idBlock("seq-2")), echo("/echo", idBlock("seq-2")), echo("/echo", idBlock("seq-1"))}},
		{"Host changed", []string{echo("/echo", block), echo("/echo", "Host: scge\r\n"+block[len(host):]), echo("/echo", block)}},
		{"header added, then removed", []string{echo("/echo", block), echo("/echo", "Accept: */*\r\n"+block), echo("/echo", block), echo("/echo", block)}},
		{"absolute-form target, same block", []string{echo("http://other.example/echo", block), echo("/echo", block), echo("http://other.example/echo", block)}},
		{"framing header on a repeated block", []string{
			echo("/echo", block),
			"POST /echo HTTP/1.1\r\n" + host + "Content-Length: 5\r\n" + block[len(host):] + "hello",
			echo("/echo", block),
			"POST /echo HTTP/1.1\r\n" + host + "Transfer-Encoding: chunked\r\n" + block[len(host):] + chunk("hello"),
			"POST /echo HTTP/1.1\r\n" + host + "Transfer-Encoding: chunked\r\n" + block[len(host):] + chunk("again"),
			echo("/echo", block),
			"GET /echo HTTP/1.1\r\n" + host + "Expect: 100-continue\r\n" + block[len(host):],
			echo("/echo", block),
			"GET /echo HTTP/1.1\r\n" + host + "Connection: keep-alive\r\n" + block[len(host):],
			echo("/echo", block),
		}},
		{"bare LF block repeated", []string{"GET /echo HTTP/1.1\nHost: scgd\nAccept: */*\n\n", "GET /echo HTTP/1.1\nHost: scgd\nAccept: */*\n\n", echo("/echo", host+"Accept: */*\r\n\r\n")}},
		{"repeated block, then Connection: close", []string{echo("/echo", block), echo("/echo", block), "GET /echo HTTP/1.1\r\n" + host + "Connection: close\r\n" + block[len(host):]}},
	}
	cases := []struct {
		name, raw     string
		n             int
		head, perLine bool
	}{
		{"pipelined repeated blocks", echo("/echo?1", block) + echo(route, block) + echo("/echo?2", block) + echo("/echo?2", idBlock("pipe")) + echo("/echo?3", block), 5, false, false},
		{"GET keep-alive", "GET " + metrics + " HTTP/1.1\r\n" + host + "\r\n", 1, false, false},
		{"GET one line per write", "GET " + metrics + " HTTP/1.1\r\n" + host + "X-Request-Id: line-1\r\nAccept: */*\r\n\r\n", 1, false, true},
		{"POST one line per write", postCL + "X-Request-Id: line-2\r\n\r\n" + post, 1, false, true},
		{"pipelined GETs", "GET " + metrics + " HTTP/1.1\r\n" + host + "\r\n" +
			"GET /v1/route?family=MS&l=2&n=3&src=2314567&dst=7654321 HTTP/1.1\r\n" + host + "\r\n" +
			"GET /v1/neighbors?family=MS&l=2&n=3&node=2314567 HTTP/1.1\r\n" + host + "\r\n", 3, false, false},
		{"Connection: close", "GET " + metrics + " HTTP/1.1\r\n" + host + "Connection: close\r\n\r\n", 1, false, false},
		{"HTTP/1.0", "GET " + metrics + " HTTP/1.0\r\n\r\n", 1, false, false},
		{"HTTP/1.0 keep-alive", "GET " + metrics + " HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", 1, false, false},
		{"HEAD", "HEAD /healthz HTTP/1.1\r\n" + host + "\r\n", 1, true, false},
		{"POST Content-Length", postCL + "\r\n" + post, 1, false, false},
		{"POST chunked", "POST /v1/route HTTP/1.1\r\n" + host + "Transfer-Encoding: chunked\r\n\r\n" + chunk(post), 1, false, false},
		{"chunked with trailer, then GET", "POST /v1/route HTTP/1.1\r\n" + host + "Transfer-Encoding: chunked\r\nTrailer: X-Sum\r\n\r\n" +
			strings.TrimSuffix(chunk(post), "\r\n") + "X-Sum: 1\r\n\r\n" + "GET " + metrics + " HTTP/1.1\r\n" + host + "\r\n", 2, false, false},
		{"unread body, then GET", "POST " + metrics + " HTTP/1.1\r\n" + host + "Content-Length: " + strconv.Itoa(len(post)) + "\r\n\r\n" + post +
			"GET " + metrics + " HTTP/1.1\r\n" + host + "\r\n", 2, false, false},
		{"Expect 100-continue", postCL + "Expect: 100-continue\r\n\r\n" + post, 1, false, false},
		{"unknown expectation", postCL + "Expect: coffee\r\n\r\n" + post, 1, false, false},
		{"unclean path", "GET /v1//metrics?family=MS&l=2&n=3 HTTP/1.1\r\n" + host + "\r\n", 1, false, false},
		{"escaped path and query", "GET /v1/%6Detrics?family=%4DS&l=2&n=3 HTTP/1.1\r\n" + host + "\r\n", 1, false, false},
		{"absolute-form target", "GET http://scgd.example" + metrics + " HTTP/1.1\r\nHost: other\r\n\r\n", 1, false, false},
		{"404", "GET /nope HTTP/1.1\r\n" + host + "\r\n", 1, false, false},
		{"405", "DELETE /v1/route HTTP/1.1\r\n" + host + "\r\n", 1, false, false},
		{"lower-case header names", "GET " + metrics + " HTTP/1.1\r\nhost: scgd\r\nx-request-id: lower-1\r\nconnection: close\r\n\r\n", 1, false, false},
		{"upper-case header names", "GET " + metrics + " HTTP/1.1\r\nHOST: scgd\r\nCONNECTION: close\r\n\r\n", 1, false, false},
		{"request ID with <>&", "GET " + metrics + " HTTP/1.1\r\n" + host + "X-Request-Id: a<b>&c\r\n\r\n", 1, false, false},
		{"two equal Content-Lengths", postCL + "Content-Length: " + strconv.Itoa(len(post)) + "\r\n\r\n" + post, 1, false, false},
		{"missing Host", "GET /healthz HTTP/1.1\r\n\r\n", 1, false, false},
		{"bad request line", "GARBAGE\r\n\r\n", 1, false, false},
		{"HTTP/2.0", "GET /healthz HTTP/2.0\r\n" + host + "\r\n", 1, false, false},
		{"invalid header name", "GET /healthz HTTP/1.1\r\n" + host + "Bad Name: x\r\n\r\n", 1, false, false},
		{"header over 1 MB", "GET /healthz HTTP/1.1\r\n" + host + "X-Big: " + strings.Repeat("a", 1<<20+64<<10) + "\r\n\r\n", 1, false, false},
		{"unsupported Transfer-Encoding", "POST /v1/route HTTP/1.1\r\n" + host + "Transfer-Encoding: gzip\r\n\r\n" + post, 1, false, false},
		{"OPTIONS *", "OPTIONS * HTTP/1.1\r\n" + host + "\r\n", 1, false, false},
		{"handler panic", "GET /panic HTTP/1.1\r\n" + host + "\r\n", 1, false, false},
	}

	cfg := Config{RequestTimeout: 30 * time.Second, SampleInterval: -1}
	ref, run := New(cfg), New(cfg)
	defer ref.Close()
	for _, s := range []*Server{ref, run} {
		s.mux.HandleFunc("/panic", func(http.ResponseWriter, *http.Request) { panic("deliberate panic") })
		s.mux.HandleFunc("/echo", echoRequest)
	}
	log.SetOutput(io.Discard) // both servers log the panic's stack
	defer log.SetOutput(os.Stderr)
	ts := httptest.NewUnstartedServer(ref.Handler())
	ts.Config.ErrorLog = log.New(io.Discard, "", 0)
	ts.Start()
	defer ts.Close()
	runAddr, _ := startRun(t, run, 10*time.Second)
	refAddr := ts.Listener.Addr().String()

	compare := func(name string, got, want []answer, gotOpen, wantOpen bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: %d answers, net/http gives %d:\n got %+v\nwant %+v", name, len(got), len(want), got, want)
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: answer %d differs from net/http's:\n got %+v\nwant %+v", name, i, got[i], want[i])
			}
		}
		if gotOpen != wantOpen {
			t.Errorf("%s: connection open after the exchange = %v, net/http %v", name, gotOpen, wantOpen)
		}
	}
	for _, tc := range cases {
		want, wantOpen := exchange(t, refAddr, tc.raw, tc.n, tc.head, tc.perLine)
		got, gotOpen := exchange(t, runAddr, tc.raw, tc.n, tc.head, tc.perLine)
		compare(tc.name, got, want, gotOpen, wantOpen)
	}
	for _, tc := range seqCases {
		want, wantOpen := exchangeEach(t, refAddr, tc.seq)
		got, gotOpen := exchangeEach(t, runAddr, tc.seq)
		compare(tc.name, got, want, gotOpen, wantOpen)
	}
}

// TestRunRefusesAmbiguousFraming pins the two deliberate deviations from
// net/http: a request with both Content-Length and Transfer-Encoding, and
// a header continued by obs-fold, are answered 400 and the connection
// closes (RFC 9112 §6.3 and §5.2), where net/http would serve them.
func TestRunRefusesAmbiguousFraming(t *testing.T) {
	run := New(Config{RequestTimeout: 30 * time.Second, SampleInterval: -1})
	addr, _ := startRun(t, run, 10*time.Second)
	body := `{"family":"MS","l":2,"n":3,"src":"2314567","dst":"7654321"}`
	for name, raw := range map[string]string{
		"Content-Length and Transfer-Encoding": "POST /v1/route HTTP/1.1\r\nHost: scgd\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\n" + chunk(body),
		"obs-fold":                             "GET /healthz HTTP/1.1\r\nHost: scgd\r\nX-Folded: a\r\n b\r\n\r\n",
	} {
		got, open := exchange(t, addr, raw, 1, false, false)
		if len(got) != 1 || got[0].status != http.StatusBadRequest || !got[0].close || open {
			t.Errorf("%s: answers %+v, open %v; want one 400 and a closed connection", name, got, open)
		}
	}
}

// TestRunHangupEndsColdWait holds a cold network's build in flight, sends
// a request that waits on it through Run, and closes the client socket:
// the connection's hang-up watch must end the wait with a 504 at once,
// long before RequestTimeout, as net/http's background read did.
func TestRunHangupEndsColdWait(t *testing.T) {
	var access syncBuilder
	s := New(Config{RequestTimeout: 30 * time.Second, SampleInterval: -1, AccessLog: &access})
	started, release := make(chan struct{}), make(chan struct{})
	var builder pool.Group
	builder.Go(func() {
		_, _ = s.cache.getOrBuild(context.Background(), cacheKey{kindNetwork, msKey(2, 3)}, func() (any, int64, error) {
			close(started)
			<-release
			return nil, 0, errors.New("build abandoned by the test")
		})
	})
	<-started
	defer builder.Wait()
	defer close(release)
	addr, _ := startRun(t, s, 10*time.Second)

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(nc, "GET /v1/metrics?family=MS&l=2&n=3 HTTP/1.1\r\nHost: scgd\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); s.cache.Stats().Coalesced == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the request never joined the held build")
		}
	}
	t0 := time.Now()
	_ = nc.Close()
	for deadline := time.Now().Add(10 * time.Second); access.String() == ""; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("no access record 10 s after the client hung up")
		}
	}
	elapsed := time.Since(t0)
	var rec AccessRecord
	if err := json.Unmarshal([]byte(access.String()), &rec); err != nil {
		t.Fatal(err)
	}
	t.Logf("access record %v after the hang-up", elapsed)
	if rec.Status != http.StatusGatewayTimeout || elapsed > 2*time.Second {
		t.Fatalf("record %+v %v after the hang-up; want a 504 within a few ms, long before the 30 s RequestTimeout", rec, elapsed)
	}
}

// TestRunShutdownKeepsFinishedAnswers cancels Run while a keep-alive
// connection flushes answers whose handlers have returned: the
// connection's first write starts the shutdown and waits for it to close
// idle connections. The answers must still reach the client, one and two
// pipelined, and Run must shut down cleanly.
func TestRunShutdownKeepsFinishedAnswers(t *testing.T) {
	const get = "GET /healthz HTTP/1.1\r\nHost: scgd\r\n\r\n"
	for n := 1; n <= 2; n++ {
		s := New(Config{RequestTimeout: 30 * time.Second, SampleInterval: -1})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var g pool.Group
		var runErr error
		g.Go(func() { runErr = Run(ctx, gateListener{ln, cancel}, s, 10*time.Second) })
		got, _ := exchange(t, ln.Addr().String(), strings.Repeat(get, n), n, false, false)
		cancel()
		g.Wait()
		if len(got) != n {
			t.Errorf("%d requests: answers %+v; want %d", n, got, n)
		}
		for _, a := range got {
			if a.status != http.StatusOK {
				t.Errorf("%d requests: answer %+v; want 200", n, a)
			}
		}
		if runErr != nil {
			t.Errorf("%d requests: Run = %v", n, runErr)
		}
	}
}

// gateListener hands Run connections whose first write cancels Run's
// context and then waits for shutdown to close the connection, or for a
// grace period when shutdown leaves it open, before it writes.
type gateListener struct {
	net.Listener
	cancel context.CancelFunc
}

func (l gateListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &gateConn{Conn: nc, cancel: l.cancel, closed: make(chan struct{})}, nil
}

type gateConn struct {
	net.Conn
	cancel           context.CancelFunc
	wrote, closeOnce sync.Once
	closed           chan struct{}
}

func (c *gateConn) Write(p []byte) (int, error) {
	c.wrote.Do(func() {
		c.cancel()
		select {
		case <-c.closed:
		case <-time.After(200 * time.Millisecond):
		}
	})
	return c.Conn.Write(p)
}

func (c *gateConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestRunShutdownDrains checks Run's shutdown: an idle keep-alive
// connection is closed at once, a request still waiting on a cold build is
// given the drain period, and then its connection is closed, its wait
// canceled, and Run reports the deadline.
func TestRunShutdownDrains(t *testing.T) {
	s := New(Config{RequestTimeout: 30 * time.Second, SampleInterval: -1})
	started, release := make(chan struct{}), make(chan struct{})
	var builder pool.Group
	builder.Go(func() {
		_, _ = s.cache.getOrBuild(context.Background(), cacheKey{kindNetwork, msKey(2, 3)}, func() (any, int64, error) {
			close(started)
			<-release
			return nil, 0, errors.New("build abandoned by the test")
		})
	})
	<-started
	defer builder.Wait()
	defer close(release)
	const drain = 200 * time.Millisecond
	addr, stop := startRun(t, s, drain)

	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if got, open := exchange(t, addr, "GET /v1/route?family=MS&l=2&n=1&src=213&dst=321 HTTP/1.1\r\nHost: scgd\r\n\r\n", 1, false, false); len(got) != 1 || got[0].status != http.StatusOK || !open {
		t.Fatalf("warm request: %+v, open %v", got, open)
	}
	busy, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	if _, err := io.WriteString(busy, "GET /v1/metrics?family=MS&l=2&n=3 HTTP/1.1\r\nHost: scgd\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); s.cache.Stats().Coalesced == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the request never joined the held build")
		}
	}
	t0 := time.Now()
	err = stop()
	if elapsed := time.Since(t0); elapsed < drain || elapsed > drain+5*time.Second {
		t.Errorf("Run returned %v after shutdown began, want about the %v drain", elapsed, drain)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Run = %v, want the drain deadline", err)
	}
	for name, nc := range map[string]net.Conn{"idle": idle, "busy": busy} {
		_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := nc.Read(make([]byte, 1)); n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("%s connection after shutdown: read %d, %v; want it closed", name, n, err)
		}
	}
}
