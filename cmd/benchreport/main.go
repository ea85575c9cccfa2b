// Command benchreport times the repository's headline performance
// measurements — the rank kernel, the BFS engine at k = 8/9/10
// (factored neighbor-table build, then the table-resident bitset sweep on
// one worker and on -workers), stretch sampling, a warm store load, the
// warm /v1/route handler, warm requests to the four v1 endpoints through
// the whole middleware, warm routes through scgd's own HTTP/1.1
// transport, and /v1/route with and without request tracing — and emits
// them as JSON so each PR can be compared against the committed
// BENCH_baseline.json and the perf trajectory of the exact-measurement
// engine stays visible. The server entries also record their heap
// allocations per request; the go tests (TestRouteHotAllocs*,
// TestServeAllocs, TestConnAllocs) hold those to their ceilings.
//
// Entries are emitted in a fixed order (no map iteration feeds the file),
// so two runs on the same machine differ only in the measured fields.
//
// The -compare flag turns the command into a regression gate: it reads two
// reports and fails if any benchmark present in both slowed past the ratio
// threshold (-max-ratio, default 3x, to tolerate machine-to-machine noise).
//
// Examples:
//
//	benchreport -out BENCH_baseline.json
//	benchreport -quick -out bench_smoke.json   # CI smoke: k <= 8, 1 round
//	benchreport -compare BENCH_baseline.json bench_smoke.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/perm"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/topology"
	"repro/internal/version"
)

// Report is the top-level JSON document.
type Report struct {
	Schema     string  `json:"schema"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Entries    []Entry `json:"benchmarks"`
}

// Entry is one measured benchmark.
type Entry struct {
	// Name identifies the benchmark, e.g. "bfs-parallel/star-9".
	Name string `json:"name"`
	// K is the permutation dimension the benchmark ran at, 0 if n/a.
	K int `json:"k,omitempty"`
	// Workers is the BFS worker count, 0 for non-BFS entries.
	Workers int `json:"workers,omitempty"`
	// Rounds is how many times the measured operation ran.
	Rounds int `json:"rounds"`
	// NsPerOp is the mean wall time per operation in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is the mean heap allocations per operation; present only
	// for the server entries, which count them.
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Detail carries a human-oriented annotation (diameter found, pairs
	// sampled, ...).
	Detail string `json:"detail,omitempty"`
}

func main() {
	var (
		out         = flag.String("out", "BENCH_baseline.json", "output path, or - for stdout")
		maxK        = flag.Int("maxk", 10, "largest BFS dimension to measure (8..10)")
		rounds      = flag.Int("rounds", 3, "rounds per BFS benchmark (best-of is not used; the mean is reported)")
		quick       = flag.Bool("quick", false, "CI smoke mode: k <= 8, one round, fewer kernel iterations")
		workers     = flag.Int("workers", 0, "parallel BFS worker count (0 = GOMAXPROCS)")
		compare     = flag.Bool("compare", false, "regression-gate mode: compare two reports (old.json new.json) instead of measuring")
		maxRatio    = flag.Float64("max-ratio", 3.0, "compare mode: fail when new ns/op exceeds old by this factor")
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
		os.Exit(compareReports(flag.Arg(0), flag.Arg(1), *maxRatio))
	}
	if *quick {
		if *maxK > 8 {
			*maxK = 8
		}
		*rounds = 1
	}
	if *maxK < 8 {
		*maxK = 8
	}
	if *maxK > 10 {
		*maxK = 10
	}

	rep := &Report{
		Schema:     "scg-bench/v1",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	kernelIters := 2_000_000
	stretchPairs := 200
	if *quick {
		kernelIters = 200_000
		stretchPairs = 50
	}
	rep.Entries = append(rep.Entries, rankKernel(kernelIters))
	for k := 8; k <= *maxK; k++ {
		rep.Entries = append(rep.Entries, bfsSuite(k, *rounds, *workers)...)
	}
	rep.Entries = append(rep.Entries, stretchEntry(stretchPairs))
	storeIters := 200
	if *quick {
		storeIters = 50
	}
	rep.Entries = append(rep.Entries, storeLoadEntry(storeIters))
	routeIters := 4000
	if *quick {
		routeIters = 1000
	}
	rep.Entries = append(rep.Entries, routeHotEntry(routeIters*4))
	rep.Entries = append(rep.Entries, serveEntries(routeIters)...)
	rep.Entries = append(rep.Entries, connEntry(routeIters))
	rep.Entries = append(rep.Entries, measureRoute(routeIters, true), measureRoute(routeIters, false))

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

// compareReports is the regression gate: every benchmark present in both
// reports must hold new ns/op <= old ns/op * maxRatio. Benchmarks present
// in only one report are listed but do not fail the gate — CI compares a
// -quick smoke run (k <= 8) against the full committed baseline (k <= 10).
// Returns the process exit code.
func compareReports(oldPath, newPath string, maxRatio float64) int {
	oldRep, err := readReport(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		return 1
	}
	newRep, err := readReport(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		return 1
	}
	oldByName := make(map[string]Entry, len(oldRep.Entries))
	for _, e := range oldRep.Entries {
		oldByName[e.Name] = e
	}
	bad := 0
	compared := 0
	for _, n := range newRep.Entries {
		o, ok := oldByName[n.Name]
		if !ok {
			fmt.Printf("benchreport: new benchmark %s (%.0f ns/op), no old counterpart\n", n.Name, n.NsPerOp)
			continue
		}
		delete(oldByName, n.Name)
		compared++
		if o.NsPerOp > 0 && n.NsPerOp > o.NsPerOp*maxRatio {
			fmt.Fprintf(os.Stderr, "benchreport: FAIL %s: %.0f ns/op vs %.0f ns/op old (%.2fx > %.2fx allowed)\n",
				n.Name, n.NsPerOp, o.NsPerOp, n.NsPerOp/o.NsPerOp, maxRatio)
			bad++
			continue
		}
		fmt.Printf("benchreport: ok %s: %.0f ns/op vs %.0f old (%.2fx)\n", n.Name, n.NsPerOp, o.NsPerOp, ratioOf(n.NsPerOp, o.NsPerOp))
	}
	var missing []string
	for name := range oldByName {
		missing = append(missing, name)
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Printf("benchreport: old benchmark %s absent from the new report\n", name)
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "benchreport: the reports share no benchmarks — nothing was gated")
		return 1
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "benchreport: %d regression(s) across %d shared benchmark(s)\n", bad, compared)
		return 1
	}
	fmt.Printf("benchreport: %d shared benchmark(s) within thresholds\n", compared)
	return 0
}

func ratioOf(n, o float64) float64 {
	if o == 0 {
		return 0
	}
	return n / o
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if rep.Schema != "scg-bench/v1" {
		return nil, fmt.Errorf("%s: unknown schema %q", path, rep.Schema)
	}
	return &rep, nil
}

// rankKernel times the rank kernel on one fixed k = 10 permutation: the
// innermost loop of every exact measurement.
func rankKernel(iters int) Entry {
	p := perm.Random(10, perm.NewRNG(1))
	var sink int64
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		sink += p.Rank()
	}
	return Entry{Name: "rank/popcount", K: 10, Rounds: iters, NsPerOp: nsPerOp(time.Since(t0), iters),
		Detail: fmt.Sprintf("fixed perm, checksum %d", sink%1000)}
}

// bfsSuite measures the BFS engine on star(k): the factored neighbor-table
// build (star keeps about 2.7·k! deltas: its two longest transpositions
// move the whole label), and the table-resident bitset sweep on one worker
// and at the requested worker count. The table is dropped between build
// rounds so every build is cold, left resident for the sweep entries so
// they time only the frontier work, and dropped at the end. Every sweep's
// diameter must equal star's closed form ⌊3(k−1)/2⌋.
func bfsSuite(k, rounds, workers int) []Entry {
	nw, err := topology.NewStar(k)
	fail(err)
	g := nw.Graph()
	src := perm.Identity(k)
	w := workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	diam := 3 * (k - 1) / 2

	build := time.Duration(0)
	for r := 0; r < rounds; r++ {
		g.DropNeighborTable()
		t0 := time.Now()
		_, err := g.EnsureNeighborTable(workers)
		fail(err)
		build += time.Since(t0)
	}

	sweep := func(workers int) time.Duration {
		total := time.Duration(0)
		for r := 0; r < rounds; r++ {
			t0 := time.Now()
			res, err := g.BFSParallel(src, workers)
			fail(err)
			total += time.Since(t0)
			if res.Eccentricity != diam {
				fail(fmt.Errorf("benchreport: BFS (workers=%d) diameter %d != closed form %d at k=%d", workers, res.Eccentricity, diam, k))
			}
		}
		return total
	}
	bitset := sweep(1)
	parallel := sweep(workers)
	g.DropNeighborTable()

	detail := fmt.Sprintf("star(%d), %d states, diameter %d", k, perm.Factorial(k), diam)
	tblDetail := fmt.Sprintf("star(%d), %d states x degree %d, cold build", k, perm.Factorial(k), g.OutDegree())
	return []Entry{
		{Name: fmt.Sprintf("neighbor-table/star-%d", k), K: k, Workers: w, Rounds: rounds, NsPerOp: nsPerOp(build, rounds), Detail: tblDetail},
		{Name: fmt.Sprintf("bfs-bitset/star-%d", k), K: k, Workers: 1, Rounds: rounds, NsPerOp: nsPerOp(bitset, rounds), Detail: detail + ", table resident"},
		{Name: fmt.Sprintf("bfs-parallel/star-%d", k), K: k, Workers: w, Rounds: rounds, NsPerOp: nsPerOp(parallel, rounds), Detail: detail + ", table resident"},
	}
}

// stretchEntry times MeasureStretch on star(7): one search from the
// identity, then one table lookup and one solver route per pair.
func stretchEntry(pairs int) Entry {
	nw, err := topology.NewStar(7)
	fail(err)
	t0 := time.Now()
	st, err := nw.Graph().MeasureStretch(pairs, 1, func(src, dst perm.Perm) (int, error) {
		return nw.RouteLen(src, dst)
	})
	fail(err)
	elapsed := time.Since(t0)
	return Entry{
		Name:    "stretch/star-7",
		K:       7,
		Rounds:  pairs,
		NsPerOp: nsPerOp(elapsed, pairs),
		Detail:  fmt.Sprintf("%d pairs, mean stretch %.3f, %d optimal", st.Pairs, st.MeanStretch, st.Optimal),
	}
}

// storeLoadEntry times store.Load of the profile-only star(8) entry that
// scgd's write-back leaves: the read, checksum and decode of a warm
// start. The file lives in a temporary store directory, removed after
// the timed loop.
func storeLoadEntry(iters int) Entry {
	nw, err := topology.NewStar(8)
	fail(err)
	prof, err := nw.Graph().ExactProfile()
	fail(err)
	dir, err := os.MkdirTemp("", "benchreport-store-")
	fail(err)
	st, err := store.Open(dir)
	fail(err)
	key := store.Key{Family: "star", L: 1, N: 7}
	fail(st.Put(key, &store.Entry{Family: key.Family, L: key.L, N: key.N, K: 8, Profile: prof}))

	ecc := -1
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		e, err := st.Load(key)
		fail(err)
		ecc = e.Profile.Eccentricity
	}
	elapsed := time.Since(t0)
	fail(os.RemoveAll(dir))
	if ecc != prof.Eccentricity {
		fail(fmt.Errorf("benchreport: store load diameter %d != built %d", ecc, prof.Eccentricity))
	}
	return Entry{
		Name:    "store/load-star-8",
		K:       8,
		Rounds:  iters,
		NsPerOp: nsPerOp(elapsed, iters),
		Detail:  fmt.Sprintf("%d-byte profile-only scgstore/v1 entry, diameter %d", st.Snapshot().BytesRead/int64(iters), ecc),
	}
}

// routeHotEntry times the warm /v1/route handler alone — past the mux
// middleware, straight into the pooled-scratch path. TestRouteHotAllocs
// holds the same loop to zero allocations.
func routeHotEntry(iters int) Entry {
	s := server.New(server.Config{
		RequestTimeout: 30 * time.Second,
		SampleInterval: -1,
	})
	defer s.Close()
	const target = "/v1/route?family=MS&l=2&n=3&src=2314567&dst=7654321"
	ns, allocs, err := server.MeasureRouteHot(s, target, iters)
	fail(err)
	return Entry{
		Name:        "route/hot",
		K:           7,
		Rounds:      iters,
		NsPerOp:     ns,
		AllocsPerOp: allocs,
		Detail:      "warm-cache MS(2,3) GET handler only",
	}
}

// serveTargets are the warm v1 requests serveEntries measures.
var serveTargets = []struct{ name, target string }{
	{"serve/route", "/v1/route?family=MS&l=2&n=3&src=2314567&dst=7654321"},
	{"serve/metrics", "/v1/metrics?family=MS&l=2&n=3"},
	{"serve/neighbors", "/v1/neighbors?family=MS&l=2&n=3&node=2314567"},
	{"serve/profile", "/v1/profile?family=MS&l=2&n=3"},
}

// serveEntries measures warm requests to the four v1 endpoints through the
// whole middleware, as server.Run serves them (server.MeasureServe: one
// response header map cleared per request, no client X-Request-Id). The
// profile row is a submit answered from the resident MS(2,3) profile,
// which also mints a job. TestServeAllocs holds the same requests to
// their allocation ceilings.
func serveEntries(iters int) []Entry {
	s := server.New(server.Config{
		RequestTimeout: 30 * time.Second,
		SampleInterval: -1,
	})
	defer s.Close()
	// k = 7 is below 8! states, so the job runs on the submit, which
	// answers with the finished profile.
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/profile?family=MS&l=2&n=3", nil))
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"status": "done"`) {
		fail(fmt.Errorf("benchreport: MS(2,3) profile = %d: %s", w.Code, w.Body.String()))
	}
	out := make([]Entry, 0, len(serveTargets))
	for _, t := range serveTargets {
		ns, allocs, err := server.MeasureServe(s, t.target, iters)
		fail(err)
		out = append(out, Entry{
			Name:        t.name,
			K:           7,
			Rounds:      iters,
			NsPerOp:     ns,
			AllocsPerOp: allocs,
			Detail:      "warm MS(2,3) GET through the middleware, reused response header",
		})
	}
	return out
}

// connEntry measures warm MS(2,3) routes served by server.Run over one
// keep-alive loopback connection from a client that allocates nothing, a
// different pair on every request (server.MeasureConn). TestConnAllocs
// holds the same loop to its allocation ceiling.
func connEntry(iters int) Entry {
	s := server.New(server.Config{
		RequestTimeout: 30 * time.Second,
		SampleInterval: -1,
	})
	rng := perm.NewRNG(7)
	targets := make([]string, 256)
	for i := range targets {
		targets[i] = "/v1/route?family=MS&l=2&n=3&src=" + perm.Random(7, rng).String() + "&dst=" + perm.Random(7, rng).String()
	}
	ns, allocs, err := server.MeasureConn(context.Background(), s, targets, iters)
	fail(err)
	return Entry{
		Name:        "serve/conn-route",
		K:           7,
		Rounds:      iters,
		NsPerOp:     ns,
		AllocsPerOp: allocs,
		Detail:      "warm MS(2,3) GETs, 256 pairs, over one loopback keep-alive connection to server.Run",
	}
}

// measureRoute times warm /v1/route requests against one in-process server
// and reports mean wall time and heap allocations per request. traced
// gives the server a discarding slow log that no request is slow enough to
// reach, so each request takes and releases a span timeline;
// TestServeAllocs holds such a server to the untraced ceiling.
func measureRoute(iters int, traced bool) Entry {
	cfg := server.Config{
		RequestTimeout: 30 * time.Second,
		SampleInterval: -1,
	}
	if traced {
		cfg.SlowLog, cfg.SlowThreshold = io.Discard, time.Hour
	}
	s := server.New(cfg)
	defer s.Close()
	const target = "/v1/route?family=MS&l=2&n=3&src=2314567&dst=7654321"
	serve := func() {
		r := httptest.NewRequest(http.MethodGet, target, nil)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			fail(fmt.Errorf("benchreport: route = %d: %s", w.Code, w.Body.String()))
		}
	}
	for i := 0; i < 100; i++ {
		serve() // warm the cache, the trace pool, and the JSON encoder paths
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		serve()
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	name := "telemetry/route-untraced"
	if traced {
		name = "telemetry/route-traced"
	}
	return Entry{
		Name:        name,
		K:           7,
		Rounds:      iters,
		NsPerOp:     nsPerOp(elapsed, iters),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(iters),
		Detail:      "warm-cache MS(2,3) route through the full middleware stack",
	}
}

func nsPerOp(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}
