// Command benchreport times the repository's two engines and the server
// paths around them, and gates each row against a committed baseline. The
// rows: the rank kernel; for star(k), k = 8..10, the factored
// neighbor-table build and the table-resident bitset sweep on one worker
// and on two; stretch sampling on star(7); a GET /v1/profile on a fresh
// server, cold (no store) and loaded from a store, for star(8), star(9)
// and MS(2,4); the warm /v1/route handler alone; warm requests to the
// four v1 endpoints through the whole middleware, and /v1/route on a
// traced server; and warm routes through scgd's own HTTP/1.1 transport.
//
// Every row is timed by measure: rounds of its operation, each between two
// blocks of a fixed reference kernel in which no program code runs. A row
// records the median of its rounds' ratios to the reference and the
// spread of those ratios, so a host that runs slower for a while reads
// about the same ratio. The server rows also record their heap
// allocations per request; the go tests (TestRouteHotAllocs*,
// TestServeAllocs, TestConnAllocs) hold those to their ceilings.
//
// Rows are written in a fixed order, so two runs differ only in the
// measured fields. -compare fails a row whose ratio exceeds the
// baseline's by more than the bound the baseline's spread gives it
// (bound, never above 3×), and a row that only one report holds.
//
//	benchreport -out BENCH_baseline.json
//	benchreport -compare BENCH_baseline.json new.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/perm"
	"repro/internal/pool"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/topology"
	"repro/internal/version"
)

// schema names the report format; readReport refuses any other.
const schema = "scg-bench/v2"

// Report is the top-level JSON document.
type Report struct {
	Schema    string  `json:"schema"`
	GoVersion string  `json:"go_version"`
	GOOS      string  `json:"goos"`
	GOARCH    string  `json:"goarch"`
	NumCPU    int     `json:"num_cpu"`
	Entries   []Entry `json:"benchmarks"`
}

// Entry is one measured row.
type Entry struct {
	// Name identifies the row, e.g. "bfs-parallel/star-9".
	Name string `json:"name"`
	// K is the permutation dimension the row ran at, 0 if n/a.
	K int `json:"k,omitempty"`
	// Workers is the GOMAXPROCS the row was timed at: 1, except for the
	// rows that time parallel work, where it is also the worker count.
	Workers int `json:"workers"`
	// Ops is how many operations one round runs.
	Ops int `json:"ops"`
	// NsPerOp is the median round's wall time per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// Ratio is the median over the rounds of a round's ns/op divided by
	// the reference's ns per step in the two blocks beside it.
	Ratio float64 `json:"ratio"`
	// Spread is the interquartile range of the rounds' ratios over their
	// median; -compare derives the row's bound from it (bound).
	Spread float64 `json:"spread"`
	// AllocsPerOp is the heap allocations per request of the last round;
	// present only for the server rows, which count them.
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Detail carries a human-oriented annotation.
	Detail string `json:"detail,omitempty"`
}

func main() {
	var (
		out         = flag.String("out", "BENCH_baseline.json", "output path, or - for stdout")
		compare     = flag.Bool("compare", false, "regression-gate mode: compare two reports (old.json new.json) instead of measuring")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("benchreport"))
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchreport: -compare needs exactly two arguments: old.json new.json")
			os.Exit(2)
		}
		os.Exit(gate(flag.Arg(0), flag.Arg(1)))
	}

	dir, err := os.MkdirTemp("", "benchreport-store-")
	fail(err)
	s := newServer(server.Config{})
	traced := newServer(server.Config{SlowLog: io.Discard, SlowThreshold: time.Hour})
	rows := []row{rankRow()}
	for k := 8; k <= 10; k++ {
		rows = append(rows, bfsRows(k)...)
	}
	rows = append(rows, stretchRow())
	for _, in := range storeInstances {
		rows = append(rows, storeRows(dir, in.name, in.query, in.k)...)
	}
	rows = append(rows, serveRows(s, traced)...)
	rows = append(rows, connRow())
	rep := &Report{
		Schema:    schema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Entries:   measure(rows),
	}
	s.Close()
	traced.Close()
	fail(os.RemoveAll(dir))

	enc, err := json.MarshalIndent(rep, "", "  ")
	fail(err)
	enc = append(enc, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(enc)
		fail(err)
		return
	}
	fail(os.WriteFile(*out, enc, 0o644))
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(rep.Entries))
}

// A row is one entry to time. round runs Ops operations and returns their
// wall time, leaving any per-round set-up outside it; finish, when set,
// fills in what the rounds found (Detail, AllocsPerOp) after the last.
// spawns marks a round whose work runs on more than one goroutine.
type row struct {
	Entry
	round  func() time.Duration
	finish func(*Entry)
	spawns bool
}

// rounds is how many timed rounds each row runs; the median and the
// quartiles are the rounds' order statistics 10, 5 and 15.
const rounds = 21

// measure times rounds rounds of every row and returns their entries with
// NsPerOp, Ratio and Spread filled in. The rows' rounds interleave: each
// pass runs one round of every row in order, after one untimed pass that
// keeps first-use costs (page faults, pools) out. The host's speed drifts
// in stretches of seconds, so a row whose rounds ran back to back could
// spend all of them in one stretch; interleaved, each row's rounds spread
// over the whole run. Each round starts on a collected heap whose free
// pages went back to the OS, so its allocations fault their pages in as a
// fresh process's do, whatever the rounds before it freed. It runs
// between two blocks of the reference, at GOMAXPROCS Workers on a locked
// thread, so the scheduler neither adds a P nor moves the timing
// goroutine between threads (see roundOf for the rounds that spawn).
func measure(rows []row) []Entry {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ns := make([][]float64, len(rows))
	ratio := make([][]float64, len(rows))
	for pass := -1; pass < rounds; pass++ {
		for i, r := range rows {
			runtime.GOMAXPROCS(r.Workers)
			debug.FreeOSMemory()
			before := reference(r.Workers)
			op := float64(roundOf(r).Nanoseconds()) / float64(r.Ops)
			ref := (before + reference(r.Workers)) / 2
			if pass >= 0 {
				ns[i] = append(ns[i], op)
				ratio[i] = append(ratio[i], op/ref)
			}
		}
	}
	out := make([]Entry, len(rows))
	for i, r := range rows {
		sort.Float64s(ns[i])
		sort.Float64s(ratio[i])
		e := r.Entry
		e.NsPerOp = ns[i][rounds/2]
		e.Ratio = ratio[i][rounds/2]
		e.Spread = (ratio[i][3*rounds/4] - ratio[i][rounds/4]) / e.Ratio
		if r.finish != nil {
			r.finish(&e)
		}
		out[i] = e
	}
	return out
}

// roundOf runs one round of r. A round whose work runs on more than one
// goroutine runs on a goroutine of its own, off the locked thread: there,
// every handoff between its goroutines would be a switch between threads,
// which scgd's own goroutines do not pay.
func roundOf(r row) time.Duration {
	if !r.spawns {
		return r.round()
	}
	var d time.Duration
	var g pool.Group
	g.Go(func() { d = r.round() })
	g.Wait()
	return d
}

// refSteps is the length of one reference block, about 0.5 ms on a 2-vCPU
// KVM guest.
const refSteps = 1 << 16

// refSink keeps the reference's result live.
var refSink int

// reference times one block of the reference kernel on each of procs
// goroutines at once, and returns the blocks' ns per step: a row that
// runs on two Ps is held against what two Ps do. The kernel is the
// benchmark's own code on the standard library only, so no change to the
// program can move it.
func reference(procs int) float64 {
	sums := make([]int, procs)
	var g pool.Group
	t0 := time.Now()
	for i := 1; i < procs; i++ {
		g.Go(func() { sums[i] = refBlock() })
	}
	sums[0] = refBlock()
	g.Wait()
	elapsed := time.Since(t0)
	for _, s := range sums {
		refSink += s
	}
	return float64(elapsed.Nanoseconds()) / refSteps
}

// refBlock runs refSteps steps of the reference kernel. A step advances
// four independent xorshift64 generators and sums their outputs'
// popcounts: work with the instruction-level parallelism of the program's
// kernels, so a sibling hyperthread's load slows it as it slows them,
// where one dependent chain barely notices.
func refBlock() int {
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	sum := 0
	for i := 0; i < refSteps; i++ {
		a ^= a << 13
		a ^= a >> 7
		a ^= a << 17
		b ^= b << 13
		b ^= b >> 7
		b ^= b << 17
		c ^= c << 13
		c ^= c >> 7
		c ^= c << 17
		d ^= d << 13
		d ^= d >> 7
		d ^= d << 17
		sum += bits.OnesCount64(a) + bits.OnesCount64(b) + bits.OnesCount64(c) + bits.OnesCount64(d)
	}
	return sum
}

// timed returns fn's wall time.
func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// rankRow times the rank kernel on one fixed k = 10 permutation: the
// innermost loop of every exact measurement.
func rankRow() row {
	const ops = 100_000
	p := perm.Random(10, perm.NewRNG(1))
	var sink int64
	return row{
		Entry: Entry{Name: "rank/popcount", K: 10, Workers: 1, Ops: ops},
		round: func() time.Duration {
			return timed(func() {
				for i := 0; i < ops; i++ {
					sink += p.Rank()
				}
			})
		},
		finish: func(e *Entry) { e.Detail = fmt.Sprintf("fixed perm, checksum %d", sink%1000) },
	}
}

// bfsRows times the BFS engine on star(k): the factored neighbor-table
// build, cold every round (star keeps about 2.7·k! deltas: its two
// longest transpositions move the whole label), and the table-resident
// bitset sweep on one worker and on two. Every sweep's diameter must
// equal star's closed form ⌊3(k−1)/2⌋.
func bfsRows(k int) []row {
	nw, err := topology.NewStar(k)
	fail(err)
	g := nw.Graph()
	src := perm.Identity(k)
	diam := 3 * (k - 1) / 2
	build := row{
		Entry: Entry{
			Name: fmt.Sprintf("neighbor-table/star-%d", k), K: k, Workers: 1, Ops: 1,
			Detail: fmt.Sprintf("star(%d), %d states x degree %d, cold build", k, perm.Factorial(k), g.OutDegree()),
		},
		round: func() time.Duration {
			g.DropNeighborTable()
			return timed(func() {
				_, err := g.EnsureNeighborTable(1)
				fail(err)
			})
		},
	}
	sweep := func(name string, workers int) row {
		return row{
			Entry: Entry{
				Name: fmt.Sprintf("%s/star-%d", name, k), K: k, Workers: workers, Ops: 1,
				Detail: fmt.Sprintf("star(%d), %d states, diameter %d, table resident", k, perm.Factorial(k), diam),
			},
			round: func() time.Duration {
				_, err := g.EnsureNeighborTable(1)
				fail(err)
				var ecc int
				d := timed(func() {
					res, err := g.BFSParallel(src, workers)
					fail(err)
					ecc = res.Eccentricity
				})
				if ecc != diam {
					fail(fmt.Errorf("BFS (workers=%d) diameter %d != closed form %d at k=%d", workers, ecc, diam, k))
				}
				return d
			},
			spawns: workers > 1,
		}
	}
	return []row{build, sweep("bfs-bitset", 1), sweep("bfs-parallel", 2)}
}

// stretchRow times MeasureStretch on star(7) per sampled pair: the
// neighbor-table build and one search from the identity, then one table
// lookup and one solver route per pair.
func stretchRow() row {
	const pairs = 200
	nw, err := topology.NewStar(7)
	fail(err)
	g := nw.Graph()
	var detail string
	return row{
		Entry: Entry{Name: "stretch/star-7", K: 7, Workers: 1, Ops: pairs},
		round: func() time.Duration {
			g.DropNeighborTable()
			return timed(func() {
				st, err := g.MeasureStretch(pairs, 1, nw.RouteLen)
				fail(err)
				detail = fmt.Sprintf("%d pairs, mean stretch %.3f, %d optimal", st.Pairs, st.MeanStretch, st.Optimal)
			})
		},
		finish: func(e *Entry) { e.Detail = detail },
	}
}

// storeInstances are the profiles the store rows request.
var storeInstances = []struct {
	name, query string
	k           int
}{
	{"star-8", "family=star&l=1&n=7", 8},
	{"star-9", "family=star&l=1&n=8", 9},
	{"MS-2-4", "family=MS&l=2&n=4", 9},
}

// storeRows times one GET /v1/profile, each round through the handler of
// a fresh server. The cold row's server has no store, so the request
// builds the profile and no write-back follows: its time is the build a
// first profile after deploy costs, with or without a store. The load
// row's server opens a store under dir that one request populated before
// the rounds, as a restarted daemon does, and answers from one read and
// decode.
func storeRows(dir, name, query string, k int) []row {
	target := "/v1/profile?" + query
	get := func(s *server.Server) time.Duration {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodGet, target, nil)
		d := timed(func() { s.ServeHTTP(w, r) })
		if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"status": "done"`) {
			fail(fmt.Errorf("%s = %d: %s", target, w.Code, w.Body.String()))
		}
		return d
	}
	dir = filepath.Join(dir, name)
	st, err := store.Open(dir)
	fail(err)
	s := newServer(server.Config{Store: st})
	get(s)
	s.Close() // waits for the write-back
	if n := st.Snapshot().Writes; n != 1 {
		fail(fmt.Errorf("%s: the cold request wrote %d store entries, want 1", target, n))
	}
	var bytesRead int64
	return []row{{
		Entry: Entry{
			Name: "store/cold-" + name, K: k, Workers: 1, Ops: 1,
			Detail: "GET " + target + " on a fresh server without a store: the profile build",
		},
		round: func() time.Duration {
			s := newServer(server.Config{})
			defer s.Close()
			return get(s)
		},
	}, {
		Entry: Entry{Name: "store/load-" + name, K: k, Workers: 1, Ops: 1},
		round: func() time.Duration {
			st, err := store.Open(dir)
			fail(err)
			s := newServer(server.Config{Store: st})
			defer s.Close()
			d := get(s)
			snap := st.Snapshot()
			if snap.Hits != 1 || snap.Writes != 0 {
				fail(fmt.Errorf("%s on a populated store: %d hits, %d writes, want 1 and 0", target, snap.Hits, snap.Writes))
			}
			bytesRead = snap.BytesRead
			return d
		},
		finish: func(e *Entry) {
			e.Detail = fmt.Sprintf("GET %s on a fresh server over a populated store: one %d-byte entry read and decoded", target, bytesRead)
		},
	}}
}

// newServer returns a server with no runtime sampler beside the timed
// loops.
func newServer(cfg server.Config) *server.Server {
	cfg.SampleInterval = -1
	return server.New(cfg)
}

// routeTarget is the warm route every in-memory server row requests.
const routeTarget = "/v1/route?family=MS&l=2&n=3&src=2314567&dst=7654321"

// serveTargets are the warm v1 requests timed through the middleware.
var serveTargets = []struct{ name, target string }{
	{"serve/route", routeTarget},
	{"serve/metrics", "/v1/metrics?family=MS&l=2&n=3"},
	{"serve/neighbors", "/v1/neighbors?family=MS&l=2&n=3&node=2314567"},
	{"serve/profile", "/v1/profile?family=MS&l=2&n=3"},
}

// serverRow times fn, one of server's Measure functions, on e.Ops
// requests a round at GOMAXPROCS 1, and reports the last round's
// allocations per request.
func serverRow(e Entry, fn func(ops int) (nsPerOp, allocsPerOp float64, err error)) row {
	e.Workers = 1
	var allocs float64
	return row{
		Entry: e,
		round: func() time.Duration {
			ns, a, err := fn(e.Ops)
			fail(err)
			allocs = a
			return time.Duration(ns * float64(e.Ops))
		},
		finish: func(e *Entry) { e.AllocsPerOp = allocs },
	}
}

// serveRows times warm MS(2,3) requests in memory on s: the /v1/route
// handler alone, past the middleware (server.MeasureRouteHot); the four
// v1 endpoints through the whole middleware as server.Run serves them
// (server.MeasureServe: one response header map cleared per request, no
// client X-Request-Id), the profile row a submit answered from the
// resident profile; and the route through the middleware of traced, a
// server with a slow log that no request is slow enough to reach, so
// each request takes and releases a span timeline.
func serveRows(s, traced *server.Server) []row {
	// k = 7: the submit runs the job and answers with the finished
	// profile, which stays resident for serve/profile.
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/profile?family=MS&l=2&n=3", nil))
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"status": "done"`) {
		fail(fmt.Errorf("MS(2,3) profile = %d: %s", w.Code, w.Body.String()))
	}
	rows := []row{serverRow(Entry{
		Name: "route/hot", K: 7, Ops: 8000, Detail: "warm-cache MS(2,3) GET handler only",
	}, func(ops int) (float64, float64, error) { return server.MeasureRouteHot(s, routeTarget, ops) })}
	for _, t := range serveTargets {
		rows = append(rows, serverRow(Entry{
			Name: t.name, K: 7, Ops: 4000, Detail: "warm MS(2,3) GET through the middleware, reused response header",
		}, func(ops int) (float64, float64, error) { return server.MeasureServe(s, t.target, ops) }))
	}
	return append(rows, serverRow(Entry{
		Name: "telemetry/route-traced", K: 7, Ops: 4000, Detail: "warm MS(2,3) route through the middleware of a traced server",
	}, func(ops int) (float64, float64, error) { return server.MeasureServe(traced, routeTarget, ops) }))
}

// connRow times warm MS(2,3) routes served by server.Run over one
// keep-alive loopback connection from a client that allocates nothing, a
// different pair on every request (server.MeasureConn). Run closes its
// server, so each round has a fresh one, warmed before its window. The
// client and Run's connection goroutine hand the P to each other on every
// request.
func connRow() row {
	rng := perm.NewRNG(7)
	targets := make([]string, 256)
	for i := range targets {
		targets[i] = "/v1/route?family=MS&l=2&n=3&src=" + perm.Random(7, rng).String() + "&dst=" + perm.Random(7, rng).String()
	}
	r := serverRow(Entry{
		Name: "serve/conn-route", K: 7, Ops: 500,
		Detail: "warm MS(2,3) GETs, 256 pairs, over one loopback keep-alive connection to server.Run",
	}, func(ops int) (float64, float64, error) {
		return server.MeasureConn(context.Background(), newServer(server.Config{}), targets, ops)
	})
	r.spawns = true
	return r
}

// maxBound caps every row's bound: no row passes at three times its
// baseline ratio, however widely its baseline rounds spread.
const maxBound = 3.0

// bound is the factor by which a row's ratio may exceed its baseline ratio
// before -compare fails it, from the spread of the baseline's rounds:
// 1 + boundFloor + boundSpreads·spread, at most maxBound.
func bound(spread float64) float64 {
	return min(maxBound, 1+boundFloor+boundSpreads*spread)
}

// boundFloor and boundSpreads come from runs of unchanged code on a
// 2-vCPU KVM guest whose raw speed moved by up to 2× between stretches
// (CHANGES.md): in ten runs against the baseline, and in the rows off the
// injected path of four runs with a kernel slowed, no row grew past 0.97
// of its bound, while a 25% slowdown of the rank kernel or of the column
// expand kernel failed its rows in every run.
const (
	boundFloor   = 0.15
	boundSpreads = 1.0
)

// compare writes one line per row to w, its ratio against the baseline's
// and its bound, and returns how many rows fail: a ratio past its bound,
// or a row in only one report.
func compare(old, cur *Report, w *strings.Builder) (failed int) {
	base := make(map[string]Entry, len(old.Entries))
	for _, e := range old.Entries {
		base[e.Name] = e
	}
	for _, e := range cur.Entries {
		o, ok := base[e.Name]
		if !ok {
			fmt.Fprintf(w, "FAIL %-26s ratio %.4g, not in the baseline\n", e.Name, e.Ratio)
			failed++
			continue
		}
		delete(base, e.Name)
		growth, b := e.Ratio/o.Ratio, bound(o.Spread)
		verdict := "ok  "
		if !(growth <= b) { // a NaN growth fails too
			verdict = "FAIL"
			failed++
		}
		fmt.Fprintf(w, "%s %-26s ratio %.4g vs %.4g: %.3fx, bound %.3fx (%.0f vs %.0f ns/op)\n",
			verdict, e.Name, e.Ratio, o.Ratio, growth, b, e.NsPerOp, o.NsPerOp)
	}
	for _, o := range old.Entries {
		if _, ok := base[o.Name]; ok {
			fmt.Fprintf(w, "FAIL %-26s ratio %.4g, absent from the new report\n", o.Name, o.Ratio)
			failed++
		}
	}
	return failed
}

// gate is -compare: it reads the two reports, compares them on stdout and
// returns the process exit code.
func gate(oldPath, newPath string) int {
	old, err := readReport(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		return 1
	}
	cur, err := readReport(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		return 1
	}
	var out strings.Builder
	failed := compare(old, cur, &out)
	fmt.Print(out.String())
	if failed > 0 {
		fmt.Printf("benchreport: %d row(s) failed\n", failed)
		return 1
	}
	fmt.Printf("benchreport: all %d rows within their bounds\n", len(cur.Entries))
	return 0
}

// readReport reads a report of this schema that holds at least one row.
func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if rep.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, schema)
	}
	if len(rep.Entries) == 0 {
		return nil, fmt.Errorf("%s: no rows", path)
	}
	return &rep, nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}
