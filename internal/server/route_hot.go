package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/perm"
	"repro/internal/pool"
	"repro/internal/topology"
)

// This file is the request side of scgd's allocation-free v1 path: a
// pooled per-request workspace and a copy-free query decoder shared by all
// four v1 endpoints (the response side is encode.go), plus the
// measurements that pin it. A warm GET /v1/route handler allocates nothing
// on the heap (TestRouteHotAllocs and the benchreport route/hot gate); a
// warm request to any v1 endpoint through the whole middleware allocates
// only what ServeAllocs names, and through Run's transport only what
// ConnAllocs names.

// scratch bundles every buffer one v1 request needs: node-label parse
// targets, the topology routing workspace, and the response encoding
// buffer. Instances recycle through scratchPool.
type scratch struct {
	topo topology.RouteScratch
	src  perm.Perm
	dst  perm.Perm
	buf  []byte
}

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

// v1Query holds the query parameters the v1 endpoints read, each as
// url.Values.Get returns it: the first value, "" when absent.
type v1Query struct {
	family, l, n, src, dst, node, id string
}

// parseQuery decodes the v1 query parameters. The fast path slices values
// straight out of RawQuery; queries carrying escapes, '+', or semicolon
// separators fall back to url.ParseQuery with r.URL.Query()'s
// drop-malformed-pairs semantics, so observable behavior is unchanged.
// FuzzRouteRequest checks both paths against url.ParseQuery.
func parseQuery(rq string) v1Query {
	if strings.ContainsAny(rq, "%+;") {
		vals, _ := url.ParseQuery(rq) // like r.URL.Query(), keep the well-formed pairs
		return v1Query{
			family: vals.Get("family"), l: vals.Get("l"), n: vals.Get("n"),
			src: vals.Get("src"), dst: vals.Get("dst"), node: vals.Get("node"), id: vals.Get("id"),
		}
	}
	var q v1Query
	var seen uint8
	for len(rq) > 0 {
		pair := rq
		if i := strings.IndexByte(rq, '&'); i >= 0 {
			pair, rq = rq[:i], rq[i+1:]
		} else {
			rq = ""
		}
		key, val := pair, ""
		if i := strings.IndexByte(pair, '='); i >= 0 {
			key, val = pair[:i], pair[i+1:]
		}
		var field *string
		var bit uint8
		switch key {
		case "family":
			field, bit = &q.family, 1<<0
		case "l":
			field, bit = &q.l, 1<<1
		case "n":
			field, bit = &q.n, 1<<2
		case "src":
			field, bit = &q.src, 1<<3
		case "dst":
			field, bit = &q.dst, 1<<4
		case "node":
			field, bit = &q.node, 1<<5
		case "id":
			field, bit = &q.id, 1<<6
		default:
			continue
		}
		// First occurrence wins, matching url.Values.Get.
		if seen&bit == 0 {
			*field, seen = val, seen|bit
		}
	}
	return q
}

// growPerm returns (*buf)[:k], reallocating only when the pooled buffer is
// too short, which happens once per scratch lifetime and instance size.
func growPerm(buf *perm.Perm, k int) perm.Perm {
	if cap(*buf) < k {
		*buf = make(perm.Perm, k)
	}
	return (*buf)[:k]
}

// parseNodeInto decodes a node label into buf. Anything but a fully valid
// compact digit label of exactly k symbols re-runs the allocating
// parseNode so error messages stay identical.
func parseNodeInto(what, raw string, k int, buf *perm.Perm) (perm.Perm, error) {
	p := growPerm(buf, k)
	if n, ok := perm.ParseInto(raw, p); ok && n == k && p.Valid() {
		return p, nil
	}
	return parseNode(what, raw, k)
}

// nullResponseWriter is the measurement sink for the in-memory benchmarks:
// a ResponseWriter whose body writes only count bytes. MeasureRouteHot
// keeps one header map across requests, so only the handler's own
// allocations are counted; MeasureServe clears it before each request, as
// Run's connections clear theirs.
type nullResponseWriter struct {
	h      http.Header
	status int
	bytes  int64
}

func newNullResponseWriter() *nullResponseWriter {
	return &nullResponseWriter{h: make(http.Header, 4)}
}

func (w *nullResponseWriter) Header() http.Header { return w.h }

func (w *nullResponseWriter) WriteHeader(status int) { w.status = status }

func (w *nullResponseWriter) Write(p []byte) (int, error) {
	w.bytes += int64(len(p))
	return len(p), nil
}

// MeasureRouteHot drives iters warm-cache GET /v1/route requests through the
// route handler alone, past the middleware (MeasureServe times the two
// together), and returns mean wall time and heap allocations per request.
// cmd/benchreport gates allocs/op at exactly zero.
func MeasureRouteHot(s *Server, target string, iters int) (nsPerOp, allocsPerOp float64, err error) {
	r, err := http.NewRequest(http.MethodGet, target, nil)
	if err != nil {
		return 0, 0, err
	}
	c := call{deadline: time.Now().Add(s.cfg.RequestTimeout)}
	w := newNullResponseWriter()
	for i := 0; i < 64; i++ {
		if status := s.handleRoute(w, r, c); status != http.StatusOK {
			return 0, 0, fmt.Errorf("route warm-up returned %d for %s", status, target)
		}
	}
	ns, allocs := measureLoop(iters, func() {
		s.handleRoute(w, r, c)
	})
	return ns, allocs, nil
}

// Allocation ceilings for one warm v1 GET through Handler().ServeHTTP, as
// MeasureServe counts them. Every such request pays two:
//
//   - 1: the request ID string telemetry.NewRequestID mints when the
//     client sent no X-Request-Id;
//   - 1: the one-element value slice the response header stores it in.
//
// A profile submit answered from a resident profile also records a job:
// the Job itself and its ID string (2), plus the amortized growth of the
// job ledger's map and completion list, which the last 2 bound.
//
// ConnAllocs is the ceiling for the same request served by Run over a
// keep-alive connection, as MeasureConn counts it: the two above, plus
// the request-target string the connection reads it into (RequestURI,
// which URL.Path and URL.RawQuery slice).
const (
	ServeAllocs         = 2
	ProfileSubmitAllocs = 6
	ConnAllocs          = ServeAllocs + 1
)

// MeasureServe drives iters warm GET requests for target through
// Handler(), middleware included, the way Run serves them: one reused
// request without X-Request-Id, and one response header map cleared
// before each call. The target must already answer 200 (a profile submit
// needs its profile resident). It returns mean wall time and heap
// allocations per request; the ServeAllocs and ProfileSubmitAllocs
// ceilings apply to the latter.
func MeasureServe(s *Server, target string, iters int) (nsPerOp, allocsPerOp float64, err error) {
	r, err := http.NewRequest(http.MethodGet, target, nil)
	if err != nil {
		return 0, 0, err
	}
	w := newNullResponseWriter()
	serve := func() {
		clear(w.h)
		s.ServeHTTP(w, r)
	}
	for i := 0; i < 64; i++ {
		serve()
		if w.status != http.StatusOK {
			return 0, 0, fmt.Errorf("warm-up returned %d for %s", w.status, target)
		}
	}
	ns, allocs := measureLoop(iters, serve)
	return ns, allocs, nil
}

// MeasureConn serves s with Run on a loopback listener and drives iters
// GET requests over one keep-alive connection, cycling through targets, so
// that consecutive requests differ. The client writes prepared bytes and
// reads each answer into one buffer, so it allocates nothing itself: the
// heap allocations per request it returns are Run's, the ConnAllocs
// ceiling's subject, with mean round-trip wall time. Every target must
// answer 200 once warm. Run closes s before MeasureConn returns.
func MeasureConn(ctx context.Context, s *Server, targets []string, iters int) (nsPerOp, allocsPerOp float64, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	rctx, stop := context.WithCancel(ctx)
	var g pool.Group
	var runErr error
	g.Go(func() { runErr = Run(rctx, ln, s, time.Second) })
	defer func() {
		stop()
		g.Wait()
		if err == nil {
			err = runErr
		}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, 0, err
	}
	defer func() { _ = nc.Close() }() // only read from after the last answer
	reqs := make([][]byte, len(targets))
	for i, target := range targets {
		reqs[i] = []byte("GET " + target + " HTTP/1.1\r\nHost: scgd\r\n\r\n")
	}
	buf := make([]byte, 64<<10)
	var i int
	var rtErr error
	roundTrip := func() {
		if rtErr == nil {
			rtErr = exchangeRaw(nc, reqs[i%len(reqs)], buf)
			i++
		}
	}
	for j := 0; j < 64; j++ {
		roundTrip()
	}
	nsPerOp, allocsPerOp = measureLoop(iters, roundTrip)
	if rtErr != nil {
		return 0, 0, fmt.Errorf("request %d: %w", i, rtErr)
	}
	return nsPerOp, allocsPerOp, nil
}

// exchangeRaw writes one request and reads its answer into buf, which must
// hold it whole, and fails unless the status is 200.
func exchangeRaw(nc net.Conn, req, buf []byte) error {
	if _, err := nc.Write(req); err != nil {
		return err
	}
	n, want := 0, -1
	for want < 0 || n < want {
		if n == len(buf) {
			return errors.New("answer larger than the buffer")
		}
		m, err := nc.Read(buf[n:])
		if err != nil {
			return err
		}
		n += m
		if want >= 0 {
			continue
		}
		end := bytes.Index(buf[:n], []byte("\r\n\r\n"))
		if end < 0 {
			continue
		}
		if !bytes.HasPrefix(buf, []byte("HTTP/1.1 200 ")) {
			line, _, _ := bytes.Cut(buf[:n], []byte("\r\n"))
			return fmt.Errorf("answer %q", line)
		}
		const field = "\r\nContent-Length: "
		at := bytes.Index(buf[:end], []byte(field))
		if at < 0 {
			return errors.New("answer without Content-Length")
		}
		length := 0
		for _, b := range buf[at+len(field) : end] {
			if b < '0' || b > '9' {
				break
			}
			length = 10*length + int(b-'0')
		}
		want = end + 4 + length
	}
	return nil
}

// measureLoop times fn and reports mean nanoseconds and heap allocations per
// call. Warm-up and window run at GOMAXPROCS 1, as testing.AllocsPerRun
// does: MemStats.Mallocs counts every P, and a goroutine that moves to a P
// whose sync.Pools the warm-up never primed allocates refilling them. The
// GC before measuring empties sync.Pool primaries into the victim cache,
// so a short re-warm keeps pool refills out of the measurement.
func measureLoop(iters int, fn func()) (nsPerOp, allocsPerOp float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	for i := 0; i < 8; i++ {
		fn()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(iters),
		float64(after.Mallocs-before.Mallocs) / float64(iters)
}
