package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/textproto"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
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

// FuzzConnRequest holds Run's request parser to http.ReadRequest on
// arbitrary bytes: it must not panic, hang, or read a header block past
// maxHeaderBytes, and for every request on the stream that ReadRequest and
// net/http's server checks accept, it must return the same method,
// RequestURI, URL path and raw query, Host, header map, ContentLength and
// body bytes. The two deliberate deviations (both Content-Length and
// Transfer-Encoding; obs-fold) are the only requests it may refuse. The
// parser reads the bytes twice: in bulk, and one byte per read, as from a
// client that writes a request line by line, so no line may be read after
// the buffer under it refills.
func FuzzConnRequest(f *testing.F) {
	for _, seed := range []string{
		"GET /v1/route?family=MS&l=2&n=3&src=2314567&dst=7654321 HTTP/1.1\r\nHost: scgd\r\nUser-Agent: x\r\n\r\n",
		"GET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /b?c HTTP/1.1\r\nHost: h\r\n\r\n",
		"POST /v1/route HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nhelloGET / HTTP/1.1\r\nHost: h\r\n\r\n",
		"POST /v1/route HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\nTrailer: X-T\r\n\r\n5\r\nhello\r\n0\r\nX-T: 1\r\n\r\nGET / HTTP/1.1\r\nHOST: h\r\nX-REQUEST-ID: A\r\n\r\n",
		"POST / HTTP/1.1\r\nHost: h\r\ncontent-length: 3\r\nContent-Length: 3\r\n\r\nabc\r\n\r\nGET / HTTP/1.1\r\nHost: h\r\n\r\n",
		"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
		"POST / HTTP/1.0\r\nTransfer-Encoding: chunked\r\nContent-Length: 2\r\n\r\nab",
		"GET / HTTP/1.1\r\nHost: h\r\nX-Fold: a\r\n b\r\n\r\n",
		"GET http://example.com/x%20y?q=%zz HTTP/1.1\r\nHost: other\r\n\r\n",
		"CONNECT example.com:443 HTTP/1.1\r\n\r\n",
		"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n",
		"OPTIONS * HTTP/1.1\r\nHost: h\r\n\r\n",
		"GET /p? HTTP/1.1\nHost: h\nPragma: no-cache\n\n",
		"GET / HTTP/1.1\r\nHost: h\r\nBad Name: x\r\n\r\n",
		"GET / HTTP/2.0\r\nHost: h\r\n\r\n",
		"get / HTTP/1.1\r\nhost: a\r\nhost: b\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: h\r\nX: a\x01b\r\n\r\n",
		// Repeated header blocks, which the parser may reuse, and their
		// near misses: a value one byte off, a field added, a framing
		// field, a Host that only an absolute-form target overrides.
		"GET /a HTTP/1.1\r\nHost: h\r\nUser-Agent: u\r\n\r\nGET /b HTTP/1.1\r\nHost: h\r\nUser-Agent: u\r\n\r\nGET /c HTTP/1.1\r\nHost: h\r\nUser-Agent: v\r\n\r\nGET /d HTTP/1.1\r\nHost: h\r\nUser-Agent: u\r\n\r\n",
		"GET /a HTTP/1.1\r\nHost: h\r\nX-Request-Id: 1\r\n\r\nGET /a HTTP/1.1\r\nHost: h\r\nX-Request-Id: 1\r\nAccept: */*\r\n\r\nGET /a HTTP/1.1\r\nHost: h\r\nX-Request-Id: 1\r\n\r\n",
		"GET /a HTTP/1.1\r\nHost: h\r\n\r\nPOST /a HTTP/1.1\r\nHost: h\r\nContent-Length: 2\r\n\r\nabGET /a HTTP/1.1\r\nHost: h\r\n\r\n",
		"GET http://x/a HTTP/1.1\r\nHost: h\r\n\r\nGET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /a HTTP/1.0\r\nHost: h\r\n\r\n",
		"GET /a HTTP/1.1\nHost: h\nUser-Agent: u\n\nGET /b HTTP/1.1\nHost: h\nUser-Agent: u\n\n",
		// The second block straddles the end of the parser's 4 KB buffer,
		// so it is parsed across a refill and not kept; the third is kept
		// and the fourth reuses it.
		"GET /a HTTP/1.1\r\nHost: h\r\nX-Pad: " + strings.Repeat("p", 4030) + "\r\n\r\n" +
			strings.Repeat("GET /b HTTP/1.1\r\nHost: h\r\nUser-Agent: u\r\n\r\n", 3),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkConnRequests(t, data, bytes.NewReader(data))
		checkConnRequests(t, data, iotest.OneByteReader(bytes.NewReader(data)))
	})
}

// checkConnRequests reads up to four requests of data with the parser,
// from src, and with http.ReadRequest, and compares them. The parser reads
// src through conn.Read, as on a socket, so it sees every refill of its
// buffer and may reuse a repeated header block only when it was buffered
// whole.
func checkConnRequests(t *testing.T, data []byte, src io.Reader) {
	c := &conn{rwc: readerConn{r: src}, bw: bufio.NewWriter(io.Discard)}
	c.br = bufio.NewReaderSize(c, 4<<10)
	c.init(context.Background(), "")
	oracle := bufio.NewReaderSize(bytes.NewReader(data), 64<<10)
	for i := 0; i < 4; i++ {
		// http.ReadRequest drops the Host field the server checks, so
		// the oracle reads the head once more for it.
		_, _ = oracle.Peek(1)
		head, _ := oracle.Peek(oracle.Buffered())
		mh := requestHead(head)
		want, werr := http.ReadRequest(oracle)
		got, gerr := c.readRequest()
		if c.hdrN > maxHeaderBytes || len(c.long) > maxHeaderBytes+4<<10 {
			t.Fatalf("request %d: header read reached %d bytes past the cap", i, c.hdrN)
		}
		if werr != nil || mh == nil || !serverAccepts(want, mh) {
			return
		}
		if _, ok := mh["Cache-Control"]; !ok {
			// http.ReadRequest adds Cache-Control for a Pragma: no-cache;
			// no scgd handler reads either, and the parser adds nothing.
			delete(want.Header, "Cache-Control")
		}
		if gerr != nil {
			if gerr == errFraming && want.TransferEncoding != nil || gerr == errObsFold && obsFolded(data) {
				return
			}
			t.Fatalf("request %d: http.ReadRequest accepts %q, the parser refuses it: %v", i, data, gerr)
		}
		if got.Method != want.Method || got.RequestURI != want.RequestURI || got.URL.Path != want.URL.Path ||
			got.URL.RawQuery != want.URL.RawQuery || got.Host != want.Host || got.ContentLength != want.ContentLength ||
			!reflect.DeepEqual(got.Header, want.Header) {
			t.Fatalf("request %d of %q:\n got %s %q path %q query %q host %q length %d header %v\nwant %s %q path %q query %q host %q length %d header %v",
				i, data, got.Method, got.RequestURI, got.URL.Path, got.URL.RawQuery, got.Host, got.ContentLength, got.Header,
				want.Method, want.RequestURI, want.URL.Path, want.URL.RawQuery, want.Host, want.ContentLength, want.Header)
		}
		wantBody, werr := io.ReadAll(want.Body)
		gotBody, _ := io.ReadAll(got.Body)
		if !bytes.Equal(gotBody, wantBody) {
			t.Fatalf("request %d of %q: body %q, want %q", i, data, gotBody, wantBody)
		}
		if werr != nil {
			return
		}
		if want.Method == http.MethodPost {
			// net/http's server drops a stray CRLF after a POST body.
			peek, _ := oracle.Peek(4)
			n := 0
			for n < len(peek) && (peek[n] == '\r' || peek[n] == '\n') {
				n++
			}
			_, _ = oracle.Discard(n)
		}
	}
}

// readerConn is a net.Conn that only reads, from r.
type readerConn struct {
	net.Conn
	r io.Reader
}

func (c readerConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// requestHead parses the header block of the request at the start of
// head with textproto, as http.ReadRequest does; nil when it does not
// parse, or does not fit in head.
func requestHead(head []byte) textproto.MIMEHeader {
	tp := textproto.NewReader(bufio.NewReader(bytes.NewReader(head)))
	if _, err := tp.ReadLine(); err != nil {
		return nil
	}
	mh, err := tp.ReadMIMEHeader()
	if err != nil {
		return nil
	}
	return mh
}

// serverAccepts applies the checks net/http's server makes after parsing
// a request, to the request and the header block it was parsed from:
// protocol version, Host presence and syntax, and header names. It leaves
// out net/http's exemptions for an HTTP/2 preface and for CONNECT, which
// scgd does not serve: the parser refuses both.
func serverAccepts(r *http.Request, mh textproto.MIMEHeader) bool {
	if r.ProtoMajor != 1 || r.Method == http.MethodConnect {
		return false
	}
	hosts, haveHost := mh["Host"]
	if r.ProtoAtLeast(1, 1) && (!haveHost || len(hosts) == 0) {
		return false
	}
	const hostBytes = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789!$%&'()*+,-.:;=[]_~"
	if len(hosts) == 1 && strings.Trim(hosts[0], hostBytes) != "" {
		return false
	}
	const tokenBytes = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789!#$%&'*+-.^_`|~"
	for name := range mh {
		if name == "" || strings.Trim(name, tokenBytes) != "" {
			return false
		}
	}
	return true
}

// obsFolded reports whether a header line of data could continue onto the
// next one.
func obsFolded(data []byte) bool {
	return bytes.Contains(data, []byte("\n ")) || bytes.Contains(data, []byte("\n\t"))
}
