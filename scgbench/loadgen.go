package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/perm"
	"repro/internal/server"
	"repro/internal/store"
)

// workload is one traffic mix. A worker calls setup, then op for every
// index of the op list, then close. The op list is generated from the seed
// before setup.
type workload interface {
	setup(p *pass) error
	count() int
	// op runs op i and returns its latency sample in nanoseconds.
	op(p *pass, i int) (int64, error)
	close(p *pass) error
	// layerInputs names the instances and route pairs the traced run's
	// direct layer calls use.
	layerInputs() ([]instance, []routeOp)
}

// pass is one timed traversal of a workload's op list inside one worker
// process, with the accounting the per-layer metrics need.
type pass struct {
	o      options
	traced bool
	gen    *loadgen
	tr     *tracer       // nil when untraced
	slow   *lockedBuffer // scgd slow log sink; nil when untraced
	ref    *hostRef      // host-speed reference; nil in traced runs
	lat    []int64
	failed int
	fails  []string
	wallNS int64
	selfNS int64 // per-op time outside HTTP calls and poll sleeps
	sleep  int64 // poll-schedule sleeps
	polls  int64
	poll   *perm.RNG // first-poll delays of profile jobs
	pairs  []pairAnswer
	profs  []profileAnswer
	// counters sums the /statsz and /metricsz deltas of the timed window
	// over every server the pass used; cur is the open server's reading at
	// its start.
	counters counters
	cur      counters
	slowMark int          // slow-log records written before the timed window
	rt       runtimeDelta // Go runtime work in the timed window
	httpWin  int64        // HTTP call time in the timed window
}

func newPass(o options, traced bool) *pass {
	p := &pass{o: o, traced: traced, counters: counters{}, poll: rng(o.listSeed(), streamPoll)}
	if traced {
		p.tr = newTracer()
		p.slow = &lockedBuffer{}
	}
	p.gen = newLoadgen(p.tr, fmt.Sprintf("w%d-", o.child))
	if o.tamper != nil {
		p.gen.client.Transport = o.tamper(p.gen.client.Transport)
	}
	return p
}

// serverConfig is scgd's default configuration with the runtime sampler
// off; the traced pass adds the slow log at threshold 0.
func (p *pass) serverConfig(st *store.Store) server.Config {
	cfg := server.Config{SampleInterval: -1, Store: st}
	if p.traced {
		cfg.SlowLog = p.slow
		cfg.SlowThreshold = 0
	}
	return cfg
}

func (p *pass) fail(i int, err error) {
	p.failed++
	if len(p.fails) < 8 {
		p.fails = append(p.fails, fmt.Sprintf("op %d: %v", i, err))
	}
}

// run drives the whole op list. Dirty pages are written back and the GC
// runs first, so neither the write-back of earlier files (the build, a
// traced run's span dumps) nor garbage from set-up runs inside the timed
// window.
func (p *pass) run(w workload) error {
	n := w.count()
	p.lat = make([]int64, 0, n)
	p.counters = counters{}
	p.polls = 0
	if p.slow != nil {
		p.slowMark = bytes.Count(p.slow.bytes(), []byte("\n"))
	}
	syscall.Sync()
	runtime.GC()
	m0, h := readRuntime(), p.gen.httpNS
	defer func() {
		p.rt = diffRuntime(m0, readRuntime())
		p.httpWin = p.gen.httpNS - h
	}()
	for i := 0; i < n; i++ {
		if err := p.ref.due(); err != nil {
			return fmt.Errorf("host reference: %w", err)
		}
		h0, s0 := p.gen.httpNS, p.sleep
		p.gen.beginOp(i)
		t0 := time.Now()
		lat, err := w.op(p, i)
		d := int64(time.Since(t0))
		p.gen.endOp()
		p.wallNS += d
		p.selfNS += d - (p.gen.httpNS - h0) - (p.sleep - s0)
		if err != nil {
			p.fail(i, err)
			continue
		}
		p.lat = append(p.lat, lat)
	}
	return nil
}

// loadgen is the benchmark's client: one http.Client holding at most one
// keep-alive connection, each call waiting for its answer.
type loadgen struct {
	client *http.Client
	buf    bytes.Buffer
	tr     *tracer
	op     int    // span of the op in progress
	opID   string // request ID of the op in progress
	prefix string
	seq    int
	httpNS int64
	lastNS int64 // duration of the latest call
}

func newLoadgen(tr *tracer, prefix string) *loadgen {
	return &loadgen{
		client: &http.Client{Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		tr:     tr,
		prefix: prefix,
	}
}

// beginOp opens op i's span. In the traced pass the op gets its own
// request ID, which every HTTP call of the op (a profile submit and its
// polls) carries and scgd propagates into its slow log, so the server's
// records join the op's spans.
func (g *loadgen) beginOp(i int) {
	if g.tr == nil {
		return
	}
	g.opID = g.prefix + "op" + strconv.Itoa(i)
	g.op = g.tr.begin("op", 0, g.opID)
}

func (g *loadgen) endOp() {
	g.tr.end(g.op)
	g.op, g.opID = 0, ""
}

// get issues one GET and reads the whole body. The body aliases the
// loadgen's buffer and is valid until the next call. In the traced pass the
// request carries the op's X-Request-Id, or outside an op (set-up and
// warm-up) one of its own.
func (g *loadgen) get(url string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	sp := 0
	if g.tr != nil {
		id := g.opID
		if id == "" {
			g.seq++
			id = g.prefix + "call" + strconv.Itoa(g.seq)
		}
		req.Header.Set("X-Request-Id", id)
		sp = g.tr.begin("http", g.op, id)
	}
	t0 := time.Now()
	resp, err := g.client.Do(req)
	status := 0
	if err == nil {
		status = resp.StatusCode
		g.buf.Reset()
		_, err = g.buf.ReadFrom(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
	}
	g.lastNS = int64(time.Since(t0))
	g.httpNS += g.lastNS
	g.tr.end(sp)
	return status, g.buf.Bytes(), err
}

// getOK is get for calls whose only acceptable status is 200.
func (g *loadgen) getOK(url string) ([]byte, error) {
	status, body, err := g.get(url)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, status, bytes.TrimSpace(body))
	}
	return body, nil
}

func (g *loadgen) closeIdle() { g.client.CloseIdleConnections() }

// running is one scgd instance served by server.Run on a loopback
// listener.
type running struct {
	srv     *server.Server
	base    string
	cancel  context.CancelFunc
	done    chan error
	accepts *countingListener
}

// startServer constructs scgd from cfg and serves it on a fresh loopback
// listener.
func (p *pass) startServer(cfg server.Config) (*running, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return serve(server.New(cfg), ln), nil
}

func serve(s *server.Server, ln net.Listener) *running {
	cl := &countingListener{Listener: ln}
	ctx, cancel := context.WithCancel(context.Background())
	r := &running{srv: s, base: "http://" + ln.Addr().String(), cancel: cancel, done: make(chan error, 1), accepts: cl}
	go func() { r.done <- server.Run(ctx, cl, s, 5*time.Second) }()
	return r
}

// stop shuts the server down and waits until server.Run has returned.
func (r *running) stop() error {
	r.cancel()
	return <-r.done
}

// countingListener counts accepted connections, so a worker can assert the
// one-connection discipline.
type countingListener struct {
	net.Listener
	mu sync.Mutex
	n  int
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.n++
		l.mu.Unlock()
	}
	return c, err
}

func (l *countingListener) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// lockedBuffer is the slow-log sink: scgd writes to it from request and
// job goroutines.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// workerDir makes a fresh scratch directory for one worker process.
func workerDir(o options) (string, error) {
	d := fmt.Sprintf("%s/%s-w%d-p%d", o.dir, o.workload, o.child, os.Getpid())
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}
