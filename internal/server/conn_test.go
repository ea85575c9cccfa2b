package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
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

// TestConnAllocs is the allocation ceiling at the transport: a warm v1 GET
// served by Run over one keep-alive loopback connection, a different route
// on every request, allocates at most ConnAllocs times. The benchreport
// serve/conn-route entry gates the same ceiling.
func TestConnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates inside sync.Pool and the instrumented handler")
	}
	s := New(Config{RequestTimeout: 30 * time.Second, SampleInterval: -1})
	_, allocs, err := MeasureConn(context.Background(), s, routeTargets(256), 2000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%.4f allocs/request through Run (ceiling %d)", allocs, ConnAllocs)
	if allocs > ConnAllocs {
		t.Fatalf("a warm route through Run allocates %.2f times per request, ceiling %d", allocs, ConnAllocs)
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
		resp, err := http.ReadResponse(br, &http.Request{Method: method})
		if err != nil {
			return append(got, answer{status: -1}), false
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("reading a %d body: %v", resp.StatusCode, err)
		}
		got = append(got, answer{
			status: resp.StatusCode, body: string(body),
			ctype: resp.Header.Get("Content-Type"), connection: resp.Header.Get("Connection"),
			location: resp.Header.Get("Location"), close: resp.Close,
			reqID: resp.Header.Get("X-Request-Id") != "", date: resp.Header.Get("Date") != "",
		})
		if resp.StatusCode >= 200 {
			finals++
		}
	}
	if _, err := io.WriteString(nc, "GET /healthz HTTP/1.1\r\nHost: probe\r\n\r\n"); err != nil {
		return got, false
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return got, false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return got, resp.StatusCode == http.StatusOK
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
	cases := []struct {
		name, raw     string
		n             int
		head, perLine bool
	}{
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
	}
	log.SetOutput(io.Discard) // both servers log the panic's stack
	defer log.SetOutput(os.Stderr)
	ts := httptest.NewUnstartedServer(ref.Handler())
	ts.Config.ErrorLog = log.New(io.Discard, "", 0)
	ts.Start()
	defer ts.Close()
	runAddr, _ := startRun(t, run, 10*time.Second)
	refAddr := ts.Listener.Addr().String()

	for _, tc := range cases {
		want, wantOpen := exchange(t, refAddr, tc.raw, tc.n, tc.head, tc.perLine)
		got, gotOpen := exchange(t, runAddr, tc.raw, tc.n, tc.head, tc.perLine)
		if len(got) != len(want) {
			t.Errorf("%s: %d answers, net/http gives %d:\n got %+v\nwant %+v", tc.name, len(got), len(want), got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: answer %d differs from net/http's:\n got %+v\nwant %+v", tc.name, i, got[i], want[i])
			}
		}
		if gotOpen != wantOpen {
			t.Errorf("%s: connection open after the exchange = %v, net/http %v", tc.name, gotOpen, wantOpen)
		}
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
