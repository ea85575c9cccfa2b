package server

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httputil"
	"net/textproto"
	"net/url"
	"strconv"
	"strings"
)

// The request side of the transport in conn.go: a parser that reads what
// http.ReadRequest and net/http's server checks read, into the
// connection's reused request.

var (
	// errMalformed is net/http's bare 400 Bad Request.
	errMalformed = errors.New("malformed HTTP request")
	// errTooLarge answers 431: the header block passed maxHeaderBytes.
	errTooLarge = errors.New("request header too large")
	// errUnsupportedTE answers 501: a transfer coding other than chunked.
	errUnsupportedTE = errors.New("unsupported transfer encoding")
	// errFraming refuses a request that carries both Content-Length and
	// Transfer-Encoding, a deliberate deviation from net/http, which drops
	// the Content-Length and reads the chunked body: RFC 9112 §6.3 calls
	// such a message a likely smuggling attempt and allows a server to
	// reject it, and §6.1 requires closing the connection either way.
	errFraming = errors.New("request has both Content-Length and Transfer-Encoding")
	// errObsFold refuses a header line continued by obs-fold, the other
	// deliberate deviation: net/http joins the lines, while RFC 9112 §5.2
	// lets a server answer 400, which leaves one reading of every header.
	errObsFold = errors.New("obsolete header line folding")
)

// requestError is an answer net/http's server gives with a reason, such as
// "400 Bad Request: missing required Host header".
type requestError struct {
	status int
	detail string
}

func (e *requestError) Error() string { return http.StatusText(e.status) + ": " + e.detail }

// The header names the transport reads. readHeader notes which of them a
// block carries, so a request without one never probes the map for it.
const (
	seenHost uint8 = 1 << iota
	seenConnection
	seenContentLength
	seenTransferEncoding
	seenTrailer
	seenExpect

	// notReused marks the names that keep a block from being reused: each
	// sets per-request state (framing, an expectation, keep-alive) or has
	// the parse rewrite the map (readTransfer).
	notReused = seenConnection | seenContentLength | seenTransferEncoding | seenTrailer | seenExpect
)

// consulted returns the seen bit of a canonical header name, 0 for a name
// the transport does not read.
func consulted(name string) uint8 {
	switch name {
	case "Host":
		return seenHost
	case "Connection":
		return seenConnection
	case "Content-Length":
		return seenContentLength
	case "Transfer-Encoding":
		return seenTransferEncoding
	case "Trailer":
		return seenTrailer
	case "Expect":
		return seenExpect
	}
	return 0
}

// readRequest parses the next request into c.req. It reads what
// http.ReadRequest reads and applies net/http's server checks
// (FuzzConnRequest holds it to both), but a request whose method, header
// names and header values the connection has seen before costs one
// allocation: the request-target string. A header block byte-identical to
// the connection's last one is not parsed again (reuseHeader).
func (c *conn) readRequest() (*http.Request, error) {
	c.hdrN = 0
	if c.afterPost {
		// Tolerate the stray CRLF some clients send after a POST body
		// (RFC 9112 §2.2), as net/http does.
		peek, _ := c.br.Peek(4)
		n := 0
		for n < len(peek) && (peek[n] == '\r' || peek[n] == '\n') {
			n++
		}
		_, _ = c.br.Discard(n) // n bytes are buffered
	}
	line, err := c.readLine()
	if err != nil {
		return nil, err
	}
	r := &c.req
	*r = c.tmpl
	method, rest, ok1 := bytes.Cut(line, []byte(" "))
	target, proto, ok2 := bytes.Cut(rest, []byte(" "))
	if !ok1 || !ok2 || !validToken(method) {
		return nil, errMalformed
	}
	r.Method = internMethod(method)
	switch string(proto) {
	case "HTTP/1.1":
		r.Proto, r.ProtoMajor, r.ProtoMinor = "HTTP/1.1", 1, 1
	case "HTTP/1.0":
		r.Proto, r.ProtoMajor, r.ProtoMinor = "HTTP/1.0", 1, 0
	default:
		var ok bool
		r.Proto = string(proto)
		if r.ProtoMajor, r.ProtoMinor, ok = http.ParseHTTPVersion(r.Proto); !ok {
			return nil, errMalformed
		}
	}
	r.RequestURI = string(target)
	if err := c.parseTarget(r); err != nil {
		return nil, errMalformed
	}
	badName := false
	if !c.reuseHeader() {
		var err error
		if badName, err = c.readHeader(); err != nil {
			return nil, err
		}
	}
	h := c.hdr
	r.Header = h
	if c.hosts > 1 {
		return nil, errMalformed
	}
	if r.Host = r.URL.Host; r.Host == "" && c.hosts == 1 {
		r.Host = c.host
	}
	if cv := c.field(seenConnection, "Connection"); r.ProtoMajor == 1 && r.ProtoMinor == 0 {
		r.Close = hasToken(cv, "close") || !hasToken(cv, "keep-alive")
	} else {
		r.Close = hasToken(cv, "close")
	}
	if err := c.readTransfer(r); err != nil {
		return nil, err
	}
	if r.ProtoMajor != 1 {
		// An HTTP/2 preface ("PRI * HTTP/2.0") lands here too: scgd
		// serves no h2, where net/http passes the preface to the handler.
		return nil, &requestError{http.StatusHTTPVersionNotSupported, "unsupported protocol version"}
	}
	if r.ProtoAtLeast(1, 1) && c.hosts == 0 {
		return nil, &requestError{http.StatusBadRequest, "missing required Host header"}
	}
	if !c.hostOK {
		return nil, &requestError{http.StatusBadRequest, "malformed Host header"}
	}
	if badName {
		return nil, &requestError{http.StatusBadRequest, "invalid header name"}
	}
	c.afterPost = r.Method == http.MethodPost
	return r, nil
}

// field returns the current request's values of a name the transport
// reads, and probes the header map only when the block carried the name.
func (c *conn) field(seen uint8, name string) []string {
	if c.seen&seen == 0 {
		return nil
	}
	return c.hdr[name]
}

// reuseHeader takes the next header block as a repeat of the connection's
// last one when the two are byte-identical, as keep-alive clients such as
// net/http's Transport and curl send them, and reports whether it did. A
// repeat is not parsed: c.hdr and the facts readHeader noted beside it
// (seen, hosts, host, hostOK) still hold the last block's parse, because
// nothing writes a request's header map between two requests: not the
// transport for a block readHeader kept (no name in notReused), and not
// a handler or the mux (TestHandlersLeaveRequestHeader). The block must
// be buffered whole already; reuseHeader reads nothing from the socket.
func (c *conn) reuseHeader() bool {
	n := len(c.last)
	if n == 0 || c.br.Buffered() < n || c.hdrN+c.lastN > maxHeaderBytes {
		return false
	}
	next, _ := c.br.Peek(n) // n bytes are buffered
	if !bytes.Equal(next, c.last) {
		return false
	}
	_, _ = c.br.Discard(n)
	c.hdrN += c.lastN
	return true
}

// readLine returns the next line without its line break, as
// bufio.Reader.ReadLine does (a bare LF ends a line too, and so does the
// end of input), and fails with errTooLarge once the request's header
// bytes pass maxHeaderBytes. The slice is valid until the next read.
func (c *conn) readLine() ([]byte, error) {
	line, more, err := c.br.ReadLine()
	if err != nil {
		return nil, err
	}
	if more {
		c.long = append(c.long[:0], line...)
		for more {
			if len(c.long)+c.hdrN > maxHeaderBytes {
				return nil, errTooLarge
			}
			if line, more, err = c.br.ReadLine(); err != nil {
				return nil, err
			}
			c.long = append(c.long, line...)
		}
		line = c.long
		if cap(c.long) > retainBytes {
			c.long = nil
		}
	}
	if c.hdrN += len(line) + 2; c.hdrN > maxHeaderBytes {
		return nil, errTooLarge
	}
	return line, nil
}

// readHeader reads the header block into c.hdr, as textproto's
// ReadMIMEHeader does: names canonicalized, values stripped of outer
// blanks, repeated fields appended in order. It notes in c.seen the names
// the transport reads, takes the Host fields out of the map into c.hosts,
// c.host and c.hostOK, and keeps the block's bytes for reuseHeader when
// the whole block was buffered before it began and carries no name in
// notReused. It reports a name that contains a space, which textproto
// accepts and net/http's server then refuses, separately, because the
// server refuses it only after its other checks.
func (c *conn) readHeader() (badName bool, err error) {
	if len(c.hdr) > retainEntries {
		c.hdr = make(http.Header)
	}
	clear(c.hdr)
	if cap(c.strs) > retainEntries {
		c.strs = nil
	}
	c.strs = c.strs[:0]
	c.seen, c.last = 0, c.last[:0]
	// The buffered bytes are the block's while no read refills br.
	reads, hdrN := c.reads, c.hdrN
	buffered, _ := c.br.Peek(c.br.Buffered())
	var key [64]byte
	for first := true; ; first = false {
		line, err := c.readLine()
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return false, err
		}
		if len(line) == 0 {
			c.hosts, c.host, c.hostOK = 0, "", true
			if c.seen&seenHost != 0 {
				hosts := c.hdr["Host"]
				c.hosts, c.host = len(hosts), hosts[0]
				c.hostOK = len(hosts) != 1 || validHost(c.host)
				delete(c.hdr, "Host")
			}
			if c.reads == reads && c.seen&notReused == 0 && !badName {
				c.last = append(c.last, buffered[:len(buffered)-c.br.Buffered()]...)
				c.lastN = c.hdrN - hdrN
			}
			return badName, nil
		}
		if line[0] == ' ' || line[0] == '\t' {
			if first {
				return false, errMalformed
			}
			return false, errObsFold // the line continues the one before it
		}
		k, v, ok := bytes.Cut(bytes.Trim(line, " \t"), []byte(":"))
		if !ok || len(k) == 0 {
			return false, errMalformed
		}
		name, spaced, ok := canonicalKey(key[:0], k)
		if !ok {
			return false, errMalformed
		}
		for _, b := range v {
			if b < ' ' && b != '\t' || b == 0x7f {
				return false, errMalformed
			}
		}
		if spaced {
			badName = true
			continue
		}
		hk, hv, seen := c.intern(name, bytes.TrimLeft(v, " \t"))
		c.seen |= seen
		if vv := c.hdr[hk]; vv != nil {
			c.hdr[hk] = append(vv, hv)
		} else {
			c.hdr[hk] = c.oneValue(hv)
		}
	}
}

// canonicalKey appends the canonical form of a header name to dst, as
// textproto.CanonicalMIMEHeaderKey spells it. ok is false when the name
// holds a byte that is neither a token byte nor a space; spaced is true
// when it holds a space.
func canonicalKey(dst, k []byte) (name []byte, spaced, ok bool) {
	upper := true
	for _, b := range k {
		switch {
		case b == ' ':
			spaced = true
		case !tokenByte(b):
			return nil, false, false
		case upper && 'a' <= b && b <= 'z':
			b -= 'a' - 'A'
		case !upper && 'A' <= b && b <= 'Z':
			b += 'a' - 'A'
		}
		dst = append(dst, b)
		upper = b == '-'
	}
	return dst, spaced, true
}

// intern returns a header name and value as strings, reusing the ones the
// connection's earlier requests carried, so a client that repeats its
// headers costs no allocation for them, and the name's seen bit.
func (c *conn) intern(name, value []byte) (string, string, uint8) {
	m, ok := c.names[string(name)]
	if !ok {
		m = headerMemo{name: string(name), value: string(value)}
		m.seen = consulted(m.name)
		if len(c.names) < retainEntries {
			c.names[m.name] = m
		}
		return m.name, m.value, m.seen
	}
	if m.value != string(value) {
		m.value = string(value)
		c.names[m.name] = m
	}
	return m.name, m.value, m.seen
}

// oneValue returns a one-element header value slice backed by the
// connection's reused array; its capacity is one, so an append copies.
func (c *conn) oneValue(v string) []string {
	c.strs = append(c.strs, v)
	n := len(c.strs)
	return c.strs[n-1 : n : n]
}

// parseTarget sets r.URL from r.RequestURI as url.ParseRequestURI does.
// An origin-form target whose path needs no unescaping, the common case,
// is sliced in place; any other goes through url.ParseRequestURI.
func (c *conn) parseTarget(r *http.Request) error {
	raw := r.RequestURI
	if fast := len(raw) > 0 && raw[0] == '/'; fast {
		q := len(raw)
		for i := 0; i < len(raw); i++ {
			b := raw[i]
			if b < ' ' || b == 0x7f || q == len(raw) && b != '?' && !pathByte(b) {
				fast = false
				break
			}
			if b == '?' && q == len(raw) {
				q = i
			}
		}
		if fast {
			c.url = url.URL{Path: raw[:q]}
			if q == len(raw)-1 {
				c.url.ForceQuery = true
			} else if q < len(raw) {
				c.url.RawQuery = raw[q+1:]
			}
			r.URL = &c.url
			return nil
		}
	}
	// scgd serves no CONNECT, so its authority-form target
	// ("host:port") is refused here as malformed.
	u, err := url.ParseRequestURI(raw)
	if err != nil {
		return err
	}
	r.URL = u
	return nil
}

// pathByte reports whether b stands for itself in a URL path: one that
// url.PathEscape-style path encoding leaves alone, so Path needs no
// unescaping and RawPath stays empty.
func pathByte(b byte) bool {
	switch {
	case 'a' <= b && b <= 'z', 'A' <= b && b <= 'Z', '0' <= b && b <= '9':
		return true
	}
	switch b {
	case '-', '_', '.', '~', '$', '&', '+', ',', '/', ':', ';', '=', '@':
		return true
	}
	return false
}

// readTransfer settles the request's body framing as net/http does:
// Transfer-Encoding chunked (honored from HTTP/1.1 on, anything else 501),
// else Content-Length (repeats must agree), else no body. The framing
// headers net/http consumes leave the header map as they do there.
func (c *conn) readTransfer(r *http.Request) error {
	c.body = body{c: c}
	h := r.Header
	chunked := false
	if te := c.field(seenTransferEncoding, "Transfer-Encoding"); te != nil {
		delete(h, "Transfer-Encoding")
		if r.ProtoAtLeast(1, 1) {
			if len(te) != 1 || !asciiEqualFold(te[0], "chunked") {
				return errUnsupportedTE
			}
			chunked = true
		}
	}
	cls := c.field(seenContentLength, "Content-Length")
	if len(cls) > 1 {
		first := textproto.TrimString(cls[0])
		for _, v := range cls[1:] {
			if textproto.TrimString(v) != first {
				return errMalformed
			}
		}
		cls = c.oneValue(first)
		h["Content-Length"] = cls
	}
	var n int64
	if len(cls) > 0 {
		v := textproto.TrimString(cls[0])
		u, err := strconv.ParseUint(v, 10, 63)
		if v == "" || err != nil {
			return errMalformed
		}
		n = int64(u)
	}
	switch {
	case chunked && len(cls) > 0:
		return errFraming
	case chunked:
		r.ContentLength = -1
		r.TransferEncoding = c.oneValue("chunked")
		c.body.chunked = httputil.NewChunkedReader(c.br)
		r.Body = &c.body
	case n > 0:
		r.ContentLength = n
		c.body.n = n
		r.Body = &c.body
	default:
		r.ContentLength = 0
		r.Body = http.NoBody
	}
	if tr := c.field(seenTrailer, "Trailer"); chunked && tr != nil {
		// A trailer may not redeclare the framing (net/http's fixTrailer).
		delete(h, "Trailer")
		for _, v := range tr {
			for _, f := range strings.Split(v, ",") {
				switch http.CanonicalHeaderKey(textproto.TrimString(f)) {
				case "Transfer-Encoding", "Trailer", "Content-Length":
					return errMalformed
				}
			}
		}
	}
	return nil
}

// body is the request body of the connection's current request: n bytes
// of a Content-Length body, or a chunked stream and its trailer. Its first
// read answers an Expect: 100-continue.
type body struct {
	c       *conn
	n       int64     // Content-Length bytes left to read
	chunked io.Reader // the chunked stream; nil for a Content-Length body
	expect  bool      // the request expects 100-continue
	sent100 bool
	sawEOF  bool
	closed  bool
	err     error // a failed trailer, returned by every later read
}

func (b *body) Read(p []byte) (int, error) {
	if b.closed {
		return 0, http.ErrBodyReadAfterClose
	}
	return b.read(p)
}

// Close ends the handler's reads; the connection still reads away what is
// left after the handler (finish).
func (b *body) Close() error {
	b.closed = true
	return nil
}

func (b *body) read(p []byte) (int, error) {
	switch {
	case b.err != nil:
		return 0, b.err
	case b.sawEOF:
		return 0, io.EOF
	}
	if b.expect && !b.sent100 {
		b.sent100 = true
		_, _ = b.c.bw.WriteString("HTTP/1.1 100 Continue\r\n\r\n") // flushed before the body is read off the socket
	}
	if b.chunked != nil {
		n, err := b.chunked.Read(p)
		if err == io.EOF {
			b.sawEOF = true
			if terr := b.c.readTrailer(); terr != nil {
				b.sawEOF, b.err, err = false, terr, terr
			}
		}
		return n, err
	}
	if int64(len(p)) > b.n {
		p = p[:b.n]
	}
	n, err := b.c.br.Read(p)
	b.n -= int64(n)
	switch {
	case err == io.EOF && b.n > 0:
		err = io.ErrUnexpectedEOF
	case err == nil && b.n == 0:
		b.sawEOF, err = true, io.EOF
	}
	return n, err
}

// discard reads away what the handler left of the body, up to
// maxPostHandlerReadBytes, and reports whether the body ended cleanly
// within that, so the connection can carry another request.
func (b *body) discard() bool {
	if b.sawEOF {
		return true
	}
	if b.chunked == nil && b.n >= maxPostHandlerReadBytes {
		return false
	}
	_, err := io.CopyN(io.Discard, bodyRest{b}, maxPostHandlerReadBytes+1)
	return err == io.EOF
}

// bodyRest reads a body past a handler's Close.
type bodyRest struct{ b *body }

func (r bodyRest) Read(p []byte) (int, error) { return r.b.read(p) }

// readTrailer reads the trailer section after a chunked body's last chunk.
// Trailer fields must be well formed but are dropped: no handler reads them.
func (c *conn) readTrailer() error {
	for {
		line, err := c.readLine()
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		if len(line) == 0 {
			return nil
		}
		k, _, ok := bytes.Cut(line, []byte(":"))
		if _, spaced, valid := canonicalKey(nil, k); !ok || len(k) == 0 || spaced || !valid {
			return errMalformed
		}
	}
}

// internMethod returns the method as a string, allocating only for one
// that is not a standard method.
func internMethod(m []byte) string {
	switch string(m) {
	case http.MethodGet:
		return http.MethodGet
	case http.MethodPost:
		return http.MethodPost
	case http.MethodHead:
		return http.MethodHead
	case http.MethodPut:
		return http.MethodPut
	case http.MethodDelete:
		return http.MethodDelete
	case http.MethodOptions:
		return http.MethodOptions
	case http.MethodPatch:
		return http.MethodPatch
	case http.MethodConnect:
		return http.MethodConnect
	case http.MethodTrace:
		return http.MethodTrace
	}
	return string(m)
}

// tokenByte reports whether b may appear in an RFC 9110 token (a method or
// a header name).
func tokenByte(b byte) bool {
	switch {
	case 'a' <= b && b <= 'z', 'A' <= b && b <= 'Z', '0' <= b && b <= '9':
		return true
	}
	return strings.IndexByte("!#$%&'*+-.^_`|~", b) >= 0
}

func validToken[T string | []byte](s T) bool {
	if len(s) == 0 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !tokenByte(s[i]) {
			return false
		}
	}
	return true
}

// validHost is net/http's lenient Host check: no byte outside those a
// host, an IPv6 literal, a zone and a port can hold.
func validHost(h string) bool {
	for i := 0; i < len(h); i++ {
		b := h[i]
		switch {
		case 'a' <= b && b <= 'z', 'A' <= b && b <= 'Z', '0' <= b && b <= '9':
		case strings.IndexByte("!$%&'()*+,-.:;=[]_~", b) >= 0:
		default:
			return false
		}
	}
	return true
}

// hasToken reports whether any of the comma-separated header values lists
// token, compared case-insensitively.
func hasToken(values []string, token string) bool {
	for _, v := range values {
		for v != "" {
			var elem string
			elem, v, _ = strings.Cut(v, ",")
			if asciiEqualFold(strings.Trim(elem, " \t"), token) {
				return true
			}
		}
	}
	return false
}

// asciiEqualFold is strings.EqualFold restricted to ASCII, as HTTP's
// tokens are: a non-ASCII byte never matches.
func asciiEqualFold(s, t string) bool {
	if len(s) != len(t) {
		return false
	}
	for i := 0; i < len(s); i++ {
		a, b := s[i], t[i]
		if 'A' <= a && a <= 'Z' {
			a += 'a' - 'A'
		}
		if 'A' <= b && b <= 'Z' {
			b += 'a' - 'A'
		}
		if a != b {
			return false
		}
	}
	return true
}
