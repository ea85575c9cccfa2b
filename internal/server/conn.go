package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/textproto"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pool"
)

// This file is scgd's HTTP/1.1 transport: Run's accept loop and one
// keep-alive loop per connection, serving the Server's ServeHTTP. Each
// connection owns one bufio reader and writer, one *http.Request reset per
// request from a template that carries the connection's context, one
// request header map (kept as it is when the client repeats its last
// header block byte for byte, and otherwise cleared and parsed again), one
// response header map cleared per request, and a response writer that
// buffers the body, so the status line, headers, Date, Content-Length and
// body go out together once the handler returns.
// Responses are flushed before the connection goes idle or reads the
// socket, and not while a pipelined request is already buffered, so the
// answers to pipelined requests leave in one write. Nothing starts per
// request: the only goroutine besides the connection's own is the hang-up
// watch, which a request starts while it waits on a cold build
// (Server.network) or on a profile job or build slot
// (Server.submitProfile).
//
// What clients see matches net/http's server (TestRunMatchesNetHTTP sends
// both the same bytes; FuzzConnRequest holds the parser to
// http.ReadRequest), with two deliberate deviations, both RFC 9112
// requirements net/http relaxes: a request carrying both Content-Length
// and Transfer-Encoding, and a header continued by obs-fold, are refused
// with 400 and the connection closed.

const (
	// maxHeaderBytes caps a request's line and header block at net/http's
	// default MaxHeaderBytes (1 MB) plus the 4 KB of slack it allows; a
	// request past it is answered 431.
	maxHeaderBytes = 1<<20 + 4<<10
	// maxPostHandlerReadBytes is how much unread request body the loop
	// reads away after the handler to keep the connection, as net/http
	// does; a larger remainder closes it.
	maxPostHandlerReadBytes = 256 << 10
	// rstAvoidanceDelay is how long a connection that leaves request bytes
	// unread stays half-closed before it closes, so the client can read
	// the answer before the reset those bytes cause (net/http's delay).
	rstAvoidanceDelay = 500 * time.Millisecond
	// retainBytes bounds the buffers an idle connection keeps after an
	// unusually large request or response; retainEntries bounds its maps.
	retainBytes   = 64 << 10
	retainEntries = 32
)

// Run serves s on ln until ctx is canceled, then shuts down gracefully: it
// closes the listener and the idle connections, waits up to drain for the
// active ones to finish their requests (and the profile jobs they run),
// closes the rest, and then waits for pending store write-backs (Close). It returns nil on a clean shutdown, and an
// error wrapping context.DeadlineExceeded when drain ran out first.
func Run(ctx context.Context, ln net.Listener, s *Server, drain time.Duration) error {
	// Connections outlive ctx by up to drain; their contexts end only when
	// the drain runs out or the connection closes.
	base, cancel := context.WithCancel(context.WithoutCancel(ctx))
	defer cancel()
	t := &transport{s: s, cancel: cancel, conns: make(map[*conn]struct{})}
	acceptErr := make(chan error, 1)
	t.group.Go(func() { acceptErr <- t.accept(base, ln) })
	var err error
	select {
	case err = <-acceptErr:
		// The listener failed before shutdown was requested; its error is
		// the one to report.
		_ = t.shutdown(0)
	case <-ctx.Done():
		t.closing.Store(true)
		lnErr := ln.Close()
		err = t.shutdown(drain)
		if aerr := <-acceptErr; err == nil {
			err = errors.Join(lnErr, aerr)
		}
	}
	t.group.Wait()
	s.Close()
	return err
}

// transport is one Run's set of connections.
type transport struct {
	s      *Server
	cancel context.CancelFunc // ends every connection's context
	group  pool.Group         // the accept loop, connections and hang-up watches

	// closing is set once shutdown begins: no connection is accepted or
	// kept alive after it.
	closing atomic.Bool

	mu      sync.Mutex
	conns   map[*conn]struct{}
	drained chan struct{} // closed when closing and conns is empty
}

// accept runs the accept loop until the listener fails or closes. Like
// net/http, it retries temporary failures (such as running out of file
// descriptors) with a backoff instead of giving up.
func (t *transport) accept(ctx context.Context, ln net.Listener) error {
	var delay time.Duration
	for {
		rwc, err := ln.Accept()
		if err != nil {
			if t.closing.Load() {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() { // deprecated, but it is net/http's accept-loop test too
				delay = min(max(2*delay, 5*time.Millisecond), time.Second)
				time.Sleep(delay)
				continue
			}
			return err
		}
		delay = 0
		c := newConn(ctx, t, rwc)
		if !t.track(c) {
			c.cancel()
			_ = rwc.Close() // shutdown has begun; the client sees a closed connection
			continue
		}
		t.group.Go(c.serve)
	}
}

func (t *transport) track(c *conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closing.Load() {
		return false
	}
	t.conns[c] = struct{}{}
	return true
}

func (t *transport) untrack(c *conn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.conns, c)
	if t.drained != nil && len(t.conns) == 0 {
		close(t.drained)
		t.drained = nil
	}
}

// shutdown stops keep-alive, closes the idle connections, and waits up to
// drain for the active ones before closing them too and canceling their
// contexts, which ends any wait on a cold build.
func (t *transport) shutdown(drain time.Duration) error {
	t.mu.Lock()
	t.closing.Store(true)
	for c := range t.conns {
		c.closeIfIdle()
	}
	done := make(chan struct{})
	if len(t.conns) == 0 {
		close(done)
	} else {
		t.drained = done
	}
	t.mu.Unlock()

	timer := time.NewTimer(drain)
	defer timer.Stop()
	select {
	case <-done:
		return nil
	case <-timer.C:
	}
	t.mu.Lock()
	active := len(t.conns)
	for c := range t.conns {
		_ = c.rwc.Close() // the request in flight is abandoned
	}
	t.mu.Unlock()
	t.cancel()
	if active == 0 {
		return nil
	}
	return fmt.Errorf("server: drain: %d connections still active after %v: %w", active, drain, context.DeadlineExceeded)
}

// Connection states: idle between requests (and before the first), active
// from a request's first byte until its response is written, and closed
// once shutdown has closed it while idle.
const (
	connIdle int32 = iota
	connActive
	connClosed
)

// conn is one client connection and everything its keep-alive loop reuses
// from one request to the next.
type conn struct {
	t      *transport
	rwc    net.Conn
	cancel context.CancelFunc
	state  atomic.Int32
	br     *bufio.Reader
	bw     *bufio.Writer
	linger bool // request bytes are left unread: half-close and wait before closing

	// tmpl is the per-connection request template: its context and remote
	// address; req is reset from it for every request.
	tmpl http.Request
	req  http.Request
	url  url.URL
	hdr  http.Header
	body body
	w    response

	// Parsing state: hdrN counts the current request's header bytes
	// against maxHeaderBytes, long collects a line longer than br's
	// buffer, strs backs the request's one-value header slices, names
	// interns header names with the last value each carried, and reads
	// counts br's reads of the socket.
	hdrN      int
	long      []byte
	strs      []string
	names     map[string]headerMemo
	afterPost bool
	reads     int

	// What readHeader noted of the header block in hdr: the seen bits of
	// the names the transport reads, the Host fields it took out of the
	// map (their number, the first, and whether the first is well formed),
	// and the block's bytes and header-byte count when reuseHeader may
	// take a repeat of it (last is empty otherwise).
	seen   uint8
	hosts  int
	host   string
	hostOK bool
	last   []byte
	lastN  int

	// Response state: fields holds the handler's header fields in name
	// order; date caches the Date value, formatted at dateAt and right for
	// dateTTL, until the wall clock's next second.
	fields  []headerField
	date    []byte
	dateAt  time.Time
	dateTTL time.Duration
}

// headerMemo is one interned header name, its seen bit, and the last value
// it carried on the connection.
type headerMemo struct {
	name, value string
	seen        uint8
}

// headerField is one response header name and its values.
type headerField struct {
	name   string
	values []string
}

func newConn(ctx context.Context, t *transport, rwc net.Conn) *conn {
	c := &conn{t: t, rwc: rwc}
	c.br = bufio.NewReaderSize(c, 4<<10)
	c.bw = bufio.NewWriterSize(rwc, 4<<10)
	remote := ""
	if ra := rwc.RemoteAddr(); ra != nil {
		remote = ra.String()
	}
	ctx, c.cancel = context.WithCancel(ctx)
	c.init(ctx, remote)
	return c
}

// init makes the request template and the maps the loop reuses.
func (c *conn) init(ctx context.Context, remote string) {
	c.tmpl = *(&http.Request{RemoteAddr: remote}).WithContext(ctx)
	c.hdr = make(http.Header)
	c.names = make(map[string]headerMemo)
	c.w = response{c: c, header: make(http.Header)}
}

// Read is the source of the connection's bufio.Reader. It flushes what
// is buffered before reading the socket, such as a 100 Continue, or the
// answers to pipelined requests when the next one has only partly
// arrived, so no answer waits on a read.
func (c *conn) Read(p []byte) (int, error) {
	c.reads++
	if c.bw.Buffered() > 0 {
		if err := c.bw.Flush(); err != nil {
			return 0, err
		}
	}
	return c.rwc.Read(p)
}

// closeIfIdle closes the connection if it is waiting between requests.
func (c *conn) closeIfIdle() {
	if c.state.CompareAndSwap(connIdle, connClosed) {
		_ = c.rwc.Close() // the loop sees the read fail and exits
	}
}

// serve is the connection's keep-alive loop. A handler panic ends only
// this connection, after the responses already written are flushed.
func (c *conn) serve() {
	defer c.t.untrack(c)
	defer c.cancel()
	defer func() {
		if err := recover(); err != nil && err != http.ErrAbortHandler {
			stack := make([]byte, 64<<10)
			stack = stack[:runtime.Stack(stack, false)]
			log.Printf("scgd: panic serving %s: %v\n%s", c.tmpl.RemoteAddr, err, stack)
		}
		c.close()
	}()
	for c.awaitRequest() && c.serveRequest() {
	}
}

// close flushes what is buffered and closes the connection, half-closing
// it first and waiting when request bytes are left unread.
func (c *conn) close() {
	_ = c.bw.Flush() // a failed flush means the client is gone
	if tc, ok := c.rwc.(interface{ CloseWrite() error }); ok && c.linger {
		if tc.CloseWrite() == nil {
			time.Sleep(rstAvoidanceDelay)
		}
	}
	_ = c.rwc.Close()
}

// awaitRequest parks the connection idle until the next request's first
// byte arrives. It reports false when the client closed the connection,
// or shutdown has begun or closed it. A pipelined request already
// buffered is served at once, with the connection still active, so its
// answer joins the ones not yet flushed; otherwise those answers are
// flushed before the connection goes idle, where shutdown may close it.
func (c *conn) awaitRequest() bool {
	if c.br.Buffered() > 0 {
		return !c.t.closing.Load()
	}
	if c.bw.Flush() != nil {
		return false
	}
	c.state.Store(connIdle)
	if c.t.closing.Load() {
		return false
	}
	if _, err := c.br.Peek(1); err != nil {
		return false
	}
	return c.state.CompareAndSwap(connIdle, connActive)
}

// serveRequest reads one request, runs the handler and writes the
// response. It reports whether the connection carries another request.
func (c *conn) serveRequest() bool {
	r, err := c.readRequest()
	if err != nil {
		c.reject(err)
		return false
	}
	w := &c.w
	w.reset()
	if expect := c.field(seenExpect, "Expect"); len(expect) > 0 && expect[0] != "" {
		if !hasToken(expect[:1], "100-continue") {
			// net/http answers any other expectation 417 and closes.
			w.header["Connection"] = closeValue
			w.WriteHeader(http.StatusExpectationFailed)
			return c.finish(r)
		}
		c.body.expect = r.ProtoAtLeast(1, 1) && r.ContentLength != 0
	}
	if r.Method == http.MethodOptions && r.RequestURI == "*" {
		// net/http answers "OPTIONS *" itself, before any handler.
		w.WriteHeader(http.StatusOK)
	} else {
		c.t.s.ServeHTTP(w, r)
	}
	return c.finish(r)
}

// closeValue is the Connection value of a response that ends its
// connection; like jsonContentType it is shared and only read.
var closeValue = []string{"close"}

// watchHangup lets a wait on a cold build, a profile job or a build slot
// end when the client hangs up, the job net/http's per-request background
// read does. It reads ahead on the connection while the handler waits:
// only a closed or reset socket fails that read, and then it calls cancel. Pipelined bytes end the watch
// without canceling and stay buffered for the next request. The returned
// stop ends the read and must run before the handler returns.
func (c *conn) watchHangup(cancel context.CancelFunc) (stop func()) {
	done := make(chan struct{})
	c.t.group.Go(func() {
		defer close(done)
		if _, err := c.br.Peek(1); err != nil {
			cancel()
		}
	})
	return func() {
		_ = c.rwc.SetReadDeadline(time.Unix(1, 0)) // unblocks the read at once
		<-done
		_ = c.rwc.SetReadDeadline(time.Time{})
	}
}

// response is the connection's http.ResponseWriter. It buffers the whole
// body: the connection writes the status line, headers and body after the
// handler returns, with a Content-Length, so no response is chunked.
type response struct {
	c      *conn
	header http.Header
	status int // 0 until the handler writes a header or body
	body   []byte
}

func (w *response) reset() {
	if len(w.header) > retainEntries {
		w.header = make(http.Header)
	}
	clear(w.header)
	w.status = 0
	if cap(w.body) > retainBytes {
		w.body = nil
	}
	w.body = w.body[:0]
}

func (w *response) Header() http.Header { return w.header }

// WriteHeader records the status; later calls are ignored, as net/http
// ignores a superfluous WriteHeader.
func (w *response) WriteHeader(code int) {
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("server: WriteHeader: invalid code %d", code))
	}
	if w.status == 0 {
		w.status = code
	}
}

func (w *response) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if !bodyAllowed(w.status) {
		return 0, http.ErrBodyNotAllowed
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

// bodyAllowed reports whether a response with the status may carry a body.
func bodyAllowed(status int) bool {
	return status >= 200 && status != http.StatusNoContent && status != http.StatusNotModified
}

// finish ends the exchange after the handler, as net/http does once a
// handler has returned: it settles whether the connection stays open,
// reads away up to maxPostHandlerReadBytes of unread request body, and
// writes the response. It reports whether to serve another request.
func (c *conn) finish(r *http.Request) bool {
	w := &c.w
	if w.status == 0 {
		w.status = http.StatusOK
	}
	hs := c.collectHeader()
	keep := true
	switch {
	case r.ProtoMajor == 1 && r.ProtoMinor == 0 && hasToken(c.field(seenConnection, "Connection"), "keep-alive"):
		// HTTP/1.0 keep-alive: every response here is framed by its
		// Content-Length (or has no body), so it can stay.
	case !r.ProtoAtLeast(1, 1) || r.Close:
		keep = false
	}
	if c.t.closing.Load() || hs.close {
		keep = false
	}
	if c.body.expect && !c.body.sawEOF {
		// The client may or may not send a body nobody asked for.
		keep = false
	}
	if keep && r.ContentLength != 0 {
		keep = c.body.discard()
		c.linger = !keep
	}
	c.writeResponse(r, keep, hs)
	return keep
}

// headerSummary is what the answer head needs to know of the handler's
// header map beyond the fields collectHeader lists.
type headerSummary struct {
	connection bool // a Connection field is set
	close      bool // its first value is "close"
	typed      bool // a Content-Type field is set
	encoded    bool // a Content-Encoding field has a non-empty first value
	dated      bool // a Date field is set
}

// collectHeader reads the handler's header map in one pass: it lists in
// c.fields, in name order, the fields the answer writes as the handler
// set them (every valid name but the framing ones, Content-Length and
// Transfer-Encoding), and sums up the rest.
func (c *conn) collectHeader() headerSummary {
	var hs headerSummary
	if cap(c.fields) > retainEntries {
		c.fields = nil
	}
	c.fields = c.fields[:0]
	for k, v := range c.w.header {
		switch k {
		case "Content-Length", "Transfer-Encoding":
			continue // the connection frames the body itself
		case "Connection":
			hs.connection, hs.close = true, len(v) > 0 && v[0] == "close"
		case "Content-Type":
			hs.typed = true
		case "Content-Encoding":
			hs.encoded = len(v) > 0 && v[0] != ""
		case "Date":
			hs.dated = true
		}
		if validToken(k) {
			c.fields = append(c.fields, headerField{k, v})
		}
	}
	slices.SortFunc(c.fields, func(a, b headerField) int { return strings.Compare(a.name, b.name) })
	return hs
}

// writeResponse buffers the response in bw: status line, the handler's
// headers in name order, then Connection, Content-Type when the handler
// set none, Date, Content-Length and the body, as net/http frames a
// response whose handler has returned.
func (c *conn) writeResponse(r *http.Request, keep bool, hs headerSummary) {
	w, bw := &c.w, c.bw
	if r.ProtoAtLeast(1, 1) {
		_, _ = bw.WriteString("HTTP/1.1 ") // bufio.Writer errors are sticky; Flush reports them
	} else {
		_, _ = bw.WriteString("HTTP/1.0 ")
	}
	if text := http.StatusText(w.status); text != "" {
		_, _ = bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(w.status), 10))
		_ = bw.WriteByte(' ')
		_, _ = bw.WriteString(text)
		_, _ = bw.WriteString("\r\n")
	} else {
		_, _ = fmt.Fprintf(bw, "%03d status code %d\r\n", w.status, w.status)
	}

	for _, f := range c.fields {
		if f.name == "Connection" && !keep {
			continue
		}
		for _, v := range f.values {
			writeHeaderLine(bw, f.name, v)
		}
	}
	wants10KeepAlive := keep && r.ProtoMajor == 1 && r.ProtoMinor == 0
	switch {
	case !keep && r.ProtoAtLeast(1, 1):
		_, _ = bw.WriteString("Connection: close\r\n")
	case wants10KeepAlive && !hs.connection:
		_, _ = bw.WriteString("Connection: keep-alive\r\n")
	}
	allowed := bodyAllowed(w.status)
	if allowed && !hs.typed && len(w.body) > 0 && !hs.encoded {
		writeHeaderLine(bw, "Content-Type", http.DetectContentType(w.body))
	}
	if !hs.dated {
		_, _ = bw.WriteString("Date: ")
		_, _ = bw.Write(c.appendDate())
		_, _ = bw.WriteString("\r\n")
	}
	head := r.Method == http.MethodHead
	if allowed && (!head || len(w.body) > 0) {
		_, _ = bw.WriteString("Content-Length: ")
		_, _ = bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(len(w.body)), 10))
		_, _ = bw.WriteString("\r\n")
	}
	_, _ = bw.WriteString("\r\n")
	if allowed && !head {
		_, _ = bw.Write(w.body)
	}
}

// writeHeaderLine writes one header field, with the value's line breaks
// turned into spaces and its outer blanks trimmed, as net/http writes
// handler headers, so no value can split the response.
func writeHeaderLine(bw *bufio.Writer, key, v string) {
	_, _ = bw.WriteString(key)
	_, _ = bw.WriteString(": ")
	v = textproto.TrimString(v)
	if !strings.ContainsAny(v, "\r\n") {
		_, _ = bw.WriteString(v)
	} else {
		for i := 0; i < len(v); i++ {
			if b := v[i]; b == '\r' || b == '\n' {
				_ = bw.WriteByte(' ')
			} else {
				_ = bw.WriteByte(b)
			}
		}
	}
	_, _ = bw.WriteString("\r\n")
}

// appendDate returns the Date value for now in http.TimeFormat, formatted
// at most once per second per connection. A cached value is checked with
// one monotonic clock read: it stays right until the wall clock's second
// ends, dateTTL after it was formatted.
func (c *conn) appendDate() []byte {
	if c.date != nil && time.Since(c.dateAt) < c.dateTTL {
		return c.date
	}
	now := time.Now()
	c.dateAt, c.dateTTL = now, time.Second-time.Duration(now.Nanosecond())
	c.date = now.UTC().AppendFormat(c.date[:0], http.TimeFormat)
	return c.date
}

// reject answers a request the loop could not read, worded as net/http
// words it, with no Date, and leaves the connection to close. A
// connection that ends before a request's first line, or fails to read,
// gets no answer.
func (c *conn) reject(err error) {
	const headers = "\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n"
	var re *requestError
	var ne net.Error
	switch {
	case err == errTooLarge:
		const msg = "431 Request Header Fields Too Large"
		_, _ = c.bw.WriteString("HTTP/1.1 " + msg + headers + msg)
		c.linger = true // the client may still be sending the header
	case err == errUnsupportedTE:
		_, _ = c.bw.WriteString("HTTP/1.1 501 Not Implemented" + headers + "Unsupported transfer encoding")
	case err == io.EOF || errors.As(err, &ne):
	case errors.As(err, &re):
		msg := strconv.Itoa(re.status) + " " + http.StatusText(re.status) + ": " + re.detail
		_, _ = c.bw.WriteString("HTTP/1.1 " + msg + headers + msg)
	default:
		const msg = "400 Bad Request"
		_, _ = c.bw.WriteString("HTTP/1.1 " + msg + headers + msg)
	}
}
