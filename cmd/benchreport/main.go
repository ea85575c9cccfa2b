// Command benchreport runs the repository's headline performance
// measurements — the three rank kernels, the BFS engine suite at
// k = 8/9/10 (serial byte-table walk, precomposed neighbor-table build,
// table-resident bitset sweep single-threaded and parallel), stretch
// sampling, the warm /v1/route handler (which must be allocation-free),
// warm requests to the four v1 endpoints through the whole middleware
// (each held to its allocation ceiling), warm routes through scgd's own
// HTTP/1.1 transport (held to its ceiling), and the scgd telemetry
// zero-overhead guard (traced vs untraced /v1/route must differ by zero
// allocations per request) — and emits them as JSON so
// each PR can be compared against the committed BENCH_baseline.json and the
// perf trajectory of the exact-measurement engine stays visible.
//
// Entries are emitted in a fixed order (no map iteration feeds the file),
// so two runs on the same machine differ only in the timing fields.
//
// The -hotpath-report flag turns the command into a cross-check instead of
// a benchmark run: it reads the output of `scglint -hotpath-report` and
// asserts that the set of //scglint:hotpath-annotated kernels equals the set
// of kernels these benchmarks actually drive, so the static analysis and the
// measured reality cannot drift apart silently.
//
// The -compare flag turns the command into a regression gate: it reads two
// reports and fails if any benchmark present in both slowed past the ratio
// threshold, gained allocations, or — for route/hot — allocates at all, or
// — for the serve/* entries, serve/conn-route included — allocates past
// its ceiling.
// Wall-clock ratios tolerate machine-to-machine noise (-max-ratio, default
// 3x); allocation counts are deterministic and gate exactly.
//
// The -escapes flag is the compile-time sibling of -compare: it runs the
// compiler's escape analysis over the module (optionally named as the one
// positional argument, default ".") and checks every //scglint:hotpath
// kernel against the committed results/escape_budget.json, exactly as
// `scglint -escapes` does. Allocation counts measured at run time and
// escapes proven at compile time gate side by side.
//
// Examples:
//
//	benchreport -out BENCH_baseline.json
//	benchreport -quick -out bench_smoke.json   # CI smoke: k <= 8, 1 round
//	benchreport -compare BENCH_baseline.json bench_smoke.json
//	benchreport -escapes
//	scglint -hotpath-report | benchreport -hotpath-report -
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/lint"
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
	// Workers is the BFS worker count, 0 for serial/non-BFS entries.
	Workers int `json:"workers,omitempty"`
	// Rounds is how many times the measured operation ran.
	Rounds int `json:"rounds"`
	// NsPerOp is the mean wall time per operation in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is the mean heap allocations per operation; present only
	// for entries that measure allocation behavior (telemetry guard).
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
		hotpaths    = flag.String("hotpath-report", "", "cross-check mode: read `scglint -hotpath-report` output from this file (- for stdin) and assert the annotated kernel set matches the benchmarked set")
		compare     = flag.Bool("compare", false, "regression-gate mode: compare two reports (old.json new.json) instead of measuring")
		escapes     = flag.Bool("escapes", false, "escape-gate mode: run go build -gcflags=-m and check //scglint:hotpath kernels against the committed escape budget")
		maxRatio    = flag.Float64("max-ratio", 3.0, "compare mode: fail when new ns/op exceeds old by this factor")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("benchreport"))
		return
	}
	if *hotpaths != "" {
		os.Exit(crossCheckHotpaths(*hotpaths))
	}
	if *escapes {
		dir := "."
		if flag.NArg() == 1 {
			dir = flag.Arg(0)
		}
		m, err := lint.Load(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(2)
		}
		os.Exit(lint.RunEscapeGate(m, "", false, os.Stdout, os.Stderr))
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
	rep.Entries = append(rep.Entries, rankKernels(kernelIters)...)
	for k := 8; k <= *maxK; k++ {
		rep.Entries = append(rep.Entries, bfsSuite(k, *rounds, *workers)...)
	}
	rep.Entries = append(rep.Entries, stretchEntry(stretchPairs))
	storeIters := 200
	if *quick {
		storeIters = 50
	}
	rep.Entries = append(rep.Entries, storeDecodeEntry(storeIters))
	routeIters := 4000
	if *quick {
		routeIters = 1000
	}
	rep.Entries = append(rep.Entries, routeHotEntry(routeIters*4))
	rep.Entries = append(rep.Entries, serveEntries(routeIters)...)
	rep.Entries = append(rep.Entries, connEntry(routeIters))
	rep.Entries = append(rep.Entries, telemetryGuard(routeIters)...)

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

// benchedHotpaths is the set of //scglint:hotpath-annotated functions these
// benchmarks exercise: the rank and compose kernels (rankKernels and every
// BFS edge), the serial engine's expansion loop and the bitset engine's
// expand/merge loops (bfsSuite), the precomposed-table build kernel
// (neighbor-table entries), the store decode kernel (store/decode), and the
// warm-route distance overlay (route/hot and the telemetry guard's
// /v1/route traffic). perm.Rank is the deliberately unannotated O(k²)
// reference, so it is absent. If an annotation is added or removed, this
// list and the benchmark that drives the kernel must move together — the
// -hotpath-report cross-check fails CI otherwise.
var benchedHotpaths = []string{
	"repro/internal/core.(*NeighborTable).fillChunk",
	"repro/internal/core.(*bitsetBFS).expandWords",
	"repro/internal/core.(*bitsetBFS).mergeWords",
	"repro/internal/core.(*serialBFS).expandNode",
	"repro/internal/perm.(Perm).ComposeInto",
	"repro/internal/perm.(Perm).RankBits",
	"repro/internal/perm.(Perm).RankInto",
	"repro/internal/perm.UnrankInto",
	"repro/internal/server.routeDistance",
	"repro/internal/store.decodeU32LE",
}

// crossCheckHotpaths compares the annotated kernel set from a
// `scglint -hotpath-report` dump (one `id<TAB>pos<TAB>reason` line per
// root) against benchedHotpaths and reports the difference in both
// directions. Returns the process exit code.
func crossCheckHotpaths(path string) int {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		return 1
	}
	annotated := make(map[string]bool)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		id, _, _ := strings.Cut(line, "\t")
		annotated[id] = true
	}
	benched := make(map[string]bool, len(benchedHotpaths))
	for _, id := range benchedHotpaths {
		benched[id] = true
	}
	var unbenched, unannotated []string
	for id := range annotated {
		if !benched[id] {
			unbenched = append(unbenched, id)
		}
	}
	for _, id := range benchedHotpaths {
		if !annotated[id] {
			unannotated = append(unannotated, id)
		}
	}
	sort.Strings(unbenched)
	sort.Strings(unannotated)
	for _, id := range unbenched {
		fmt.Fprintf(os.Stderr, "benchreport: hotpath %s is annotated but no benchmark drives it\n", id)
	}
	for _, id := range unannotated {
		fmt.Fprintf(os.Stderr, "benchreport: kernel %s is benchmarked but carries no //scglint:hotpath annotation\n", id)
	}
	if len(unbenched) > 0 || len(unannotated) > 0 {
		return 1
	}
	fmt.Printf("benchreport: %d hotpath kernel(s) verified against the benchmark set\n", len(annotated))
	return 0
}

// compareReports is the regression gate: every benchmark present in both
// reports must hold new ns/op <= old ns/op * maxRatio and must not gain
// allocations (tolerance half an alloc, since the counts are means over a
// finite loop); route/hot additionally must report exactly zero allocs/op,
// and each serve/* entry at most its ceiling, no matter what the old report
// says. Benchmarks present in only one report are
// listed but do not fail the gate — CI compares a -quick smoke run (k <= 8)
// against the full committed baseline (k <= 10). Returns the process exit
// code.
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
		if n.Name == "route/hot" && n.AllocsPerOp != 0 {
			fmt.Fprintf(os.Stderr, "benchreport: FAIL %s: %.2f allocs/op, the warm route handler must not allocate\n", n.Name, n.AllocsPerOp)
			bad++
		}
		if ceiling, ok := serveCeiling(n.Name); ok && n.AllocsPerOp > ceiling {
			fmt.Fprintf(os.Stderr, "benchreport: FAIL %s: %.2f allocs/op, ceiling %.0f\n", n.Name, n.AllocsPerOp, ceiling)
			bad++
		}
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
		if n.AllocsPerOp > o.AllocsPerOp+0.5 {
			fmt.Fprintf(os.Stderr, "benchreport: FAIL %s: %.2f allocs/op vs %.2f old\n", n.Name, n.AllocsPerOp, o.AllocsPerOp)
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

// rankKernels times the three rank implementations on one fixed k = 10
// permutation: the innermost loop of every exact measurement.
func rankKernels(iters int) []Entry {
	p := perm.Random(10, perm.NewRNG(1))
	scratch := perm.NewRankScratch(10)
	var sink int64

	t0 := time.Now()
	for i := 0; i < iters; i++ {
		sink += p.Rank()
	}
	rank := time.Since(t0)

	t0 = time.Now()
	for i := 0; i < iters; i++ {
		sink += p.RankInto(scratch)
	}
	rankInto := time.Since(t0)

	t0 = time.Now()
	for i := 0; i < iters; i++ {
		sink += p.RankBits()
	}
	rankBits := time.Since(t0)

	detail := fmt.Sprintf("fixed perm, checksum %d", sink%1000)
	return []Entry{
		{Name: "rank/lehmer-k2", K: 10, Rounds: iters, NsPerOp: nsPerOp(rank, iters), Detail: detail},
		{Name: "rank/fenwick", K: 10, Rounds: iters, NsPerOp: nsPerOp(rankInto, iters), Detail: detail},
		{Name: "rank/popcount", K: 10, Rounds: iters, NsPerOp: nsPerOp(rankBits, iters), Detail: detail},
	}
}

// bfsSuite measures the BFS engine family on star(k): the serial byte-table
// walk, the precomposed neighbor-table build (the one-time cost the bitset
// engines amortize), and the table-resident bitset sweep single-threaded and
// at the requested worker count. The table is dropped between build rounds so
// every build is cold, left resident for the sweep entries so they time only
// the frontier work, and dropped at the end so successive k do not stack
// hundreds of megabytes.
func bfsSuite(k, rounds, workers int) []Entry {
	nw, err := topology.NewStar(k)
	fail(err)
	g := nw.Graph()
	src := perm.Identity(k)
	w := workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}

	var diam int
	serial := time.Duration(0)
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		res, err := g.BFSSerial(src)
		fail(err)
		serial += time.Since(t0)
		diam = res.Eccentricity
	}

	build := time.Duration(0)
	for r := 0; r < rounds; r++ {
		g.DropNeighborTable()
		t0 := time.Now()
		_, err := g.EnsureNeighborTable(workers)
		fail(err)
		build += time.Since(t0)
	}

	check := func(name string, run func() (ecc int, err error)) time.Duration {
		total := time.Duration(0)
		for r := 0; r < rounds; r++ {
			t0 := time.Now()
			ecc, err := run()
			fail(err)
			total += time.Since(t0)
			if ecc != diam {
				fail(fmt.Errorf("benchreport: %s diameter %d != serial %d at k=%d", name, ecc, diam, k))
			}
		}
		return total
	}
	bitset := check("bitset BFS", func() (int, error) {
		res, err := g.BFSBitset(src)
		if err != nil {
			return 0, err
		}
		return res.Eccentricity, nil
	})
	parallel := check("parallel BFS", func() (int, error) {
		res, err := g.BFSParallel(src, workers)
		if err != nil {
			return 0, err
		}
		return res.Eccentricity, nil
	})
	g.DropNeighborTable()

	detail := fmt.Sprintf("star(%d), %d states, diameter %d", k, perm.Factorial(k), diam)
	tblDetail := fmt.Sprintf("star(%d), %d states x degree %d, cold build", k, perm.Factorial(k), g.OutDegree())
	return []Entry{
		{Name: fmt.Sprintf("bfs-serial/star-%d", k), K: k, Rounds: rounds, NsPerOp: nsPerOp(serial, rounds), Detail: detail},
		{Name: fmt.Sprintf("neighbor-table/star-%d", k), K: k, Workers: w, Rounds: rounds, NsPerOp: nsPerOp(build, rounds), Detail: tblDetail},
		{Name: fmt.Sprintf("bfs-bitset/star-%d", k), K: k, Workers: 1, Rounds: rounds, NsPerOp: nsPerOp(bitset, rounds), Detail: detail + ", table resident"},
		{Name: fmt.Sprintf("bfs-parallel/star-%d", k), K: k, Workers: w, Rounds: rounds, NsPerOp: nsPerOp(parallel, rounds), Detail: detail + ", table resident"},
	}
}

// stretchEntry times MeasureStretch on star(7): repeated shortest-path
// searches against the solver's routes, the scratch-reuse hot path.
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

// storeDecodeEntry times store.DecodeEntry on a star(8) entry that carries
// the precomposed neighbor table — the sequential-read half of a warm
// start. The neighbor section dominates the file (k!·deg little-endian
// words), so this benchmark is what drives the decodeU32LE hotpath kernel.
func storeDecodeEntry(iters int) Entry {
	nw, err := topology.NewStar(8)
	fail(err)
	g := nw.Graph()
	prof, err := g.ExactProfile()
	fail(err)
	tbl, err := g.EnsureNeighborTable(0)
	fail(err)
	buf, err := store.AppendEntry(nil, &store.Entry{
		Family: "star", L: 1, N: 7, K: 8, Profile: prof, Neighbors: tbl,
	})
	fail(err)
	g.DropNeighborTable()

	ecc := -1
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		dec, err := store.DecodeEntry(buf)
		fail(err)
		ecc = dec.Profile.Eccentricity
	}
	elapsed := time.Since(t0)
	if ecc != prof.Eccentricity {
		fail(fmt.Errorf("benchreport: store decode diameter %d != built %d", ecc, prof.Eccentricity))
	}
	return Entry{
		Name:    "store/decode-star-8",
		K:       8,
		Rounds:  iters,
		NsPerOp: nsPerOp(elapsed, iters),
		Detail:  fmt.Sprintf("%d-byte scgstore/v1 entry with neighbor table, diameter %d", len(buf), ecc),
	}
}

// routeHotEntry measures the warm /v1/route handler alone — past the mux
// middleware, straight into the pooled-scratch path — and fails the whole
// report if it allocates at all. This is the allocs/op = 0 gate on the
// server's hottest endpoint; BenchmarkRouteHot is the go-test spelling of
// the same loop.
func routeHotEntry(iters int) Entry {
	s := server.New(server.Config{
		RequestTimeout: 30 * time.Second,
		SampleInterval: -1,
	})
	defer s.Close()
	const target = "/v1/route?family=MS&l=2&n=3&src=2314567&dst=7654321"
	ns, allocs, err := server.MeasureRouteHot(s, target, iters)
	fail(err)
	if allocs != 0 {
		fail(fmt.Errorf("benchreport: warm /v1/route handler allocates %.2f times per request, want exactly 0", allocs))
	}
	return Entry{
		Name:        "route/hot",
		K:           7,
		Rounds:      iters,
		NsPerOp:     ns,
		AllocsPerOp: allocs,
		Detail:      "warm-cache MS(2,3) GET handler only, asserted 0 allocs/op",
	}
}

// serveTargets are the warm v1 requests serveEntries measures, with the
// allocation ceilings internal/server names the allocations of.
var serveTargets = []struct {
	name, target string
	ceiling      float64
}{
	{"serve/route", "/v1/route?family=MS&l=2&n=3&src=2314567&dst=7654321", server.ServeAllocs},
	{"serve/metrics", "/v1/metrics?family=MS&l=2&n=3", server.ServeAllocs},
	{"serve/neighbors", "/v1/neighbors?family=MS&l=2&n=3&node=2314567", server.ServeAllocs},
	{"serve/profile", "/v1/profile?family=MS&l=2&n=3", server.ProfileSubmitAllocs},
}

// connRoute is the entry for warm routes served by server.Run over one
// keep-alive loopback connection (connEntry), held to server.ConnAllocs.
const connRoute = "serve/conn-route"

func serveCeiling(name string) (float64, bool) {
	if name == connRoute {
		return server.ConnAllocs, true
	}
	for _, t := range serveTargets {
		if t.name == name {
			return t.ceiling, true
		}
	}
	return 0, false
}

// serveEntries measures warm requests to the four v1 endpoints through the
// whole middleware, as server.Run serves them (server.MeasureServe: one
// response header map cleared per request, no client X-Request-Id), and
// fails the report when any allocates past its ceiling. The profile row is a submit
// answered from the resident MS(2,3) profile, which also mints a job.
func serveEntries(iters int) []Entry {
	s := server.New(server.Config{
		RequestTimeout: 30 * time.Second,
		SampleInterval: -1,
	})
	defer s.Close()
	const profile = "/v1/profile?family=MS&l=2&n=3"
	for start := time.Now(); ; time.Sleep(time.Millisecond) {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, profile, nil))
		if w.Code == http.StatusOK {
			break
		}
		if w.Code != http.StatusAccepted || time.Since(start) > time.Minute {
			fail(fmt.Errorf("benchreport: MS(2,3) profile = %d: %s", w.Code, w.Body.String()))
		}
	}
	out := make([]Entry, 0, len(serveTargets))
	for _, t := range serveTargets {
		ns, allocs, err := server.MeasureServe(s, t.target, iters)
		fail(err)
		if allocs > t.ceiling {
			fail(fmt.Errorf("benchreport: warm %s allocates %.2f times per request, ceiling %.0f", t.target, allocs, t.ceiling))
		}
		out = append(out, Entry{
			Name:        t.name,
			K:           7,
			Rounds:      iters,
			NsPerOp:     ns,
			AllocsPerOp: allocs,
			Detail:      fmt.Sprintf("warm MS(2,3) GET through the middleware, reused response header, asserted <= %.0f allocs/op", t.ceiling),
		})
	}
	return out
}

// connEntry measures warm MS(2,3) routes served by server.Run over one
// keep-alive loopback connection from a client that allocates nothing, a
// different pair on every request (server.MeasureConn), and fails the
// report when a request allocates past server.ConnAllocs: the transport's
// own gate, beside route/hot's for the handler.
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
	if allocs > server.ConnAllocs {
		fail(fmt.Errorf("benchreport: a warm route through server.Run allocates %.2f times per request, ceiling %d", allocs, server.ConnAllocs))
	}
	return Entry{
		Name:        connRoute,
		K:           7,
		Rounds:      iters,
		NsPerOp:     ns,
		AllocsPerOp: allocs,
		Detail:      fmt.Sprintf("warm MS(2,3) GETs, 256 pairs, over one loopback keep-alive connection to server.Run, asserted <= %d allocs/op", server.ConnAllocs),
	}
}

// telemetryGuard is the zero-overhead assertion for scgd's request tracing:
// it drives identical warm-cache /v1/route traffic through two in-process
// servers — tracing enabled and disabled — and fails the whole report if
// the allocations-per-request delta is nonzero. Pooled traces and always-on
// atomic counters are the design invariant this pins; a regression (say, a
// span slice escaping the pool) shows up as a broken build, not a slow
// fleet.
func telemetryGuard(iters int) []Entry {
	on := measureRoute(iters, false)
	off := measureRoute(iters, true)
	delta := on.AllocsPerOp - off.AllocsPerOp
	if math.Abs(delta) >= 1 {
		fail(fmt.Errorf("benchreport: telemetry is not allocation-free: %.2f allocs/op traced vs %.2f untraced (delta %.2f)",
			on.AllocsPerOp, off.AllocsPerOp, delta))
	}
	guard := Entry{
		Name:        "telemetry/route-alloc-delta",
		Rounds:      iters,
		AllocsPerOp: delta,
		Detail:      "asserted |delta| < 1 alloc/op between traced and untraced /v1/route",
	}
	return []Entry{on, off, guard}
}

// measureRoute times warm /v1/route requests against one in-process server
// and reports mean wall time and heap allocations per request.
func measureRoute(iters int, disableTracing bool) Entry {
	s := server.New(server.Config{
		RequestTimeout: 30 * time.Second,
		DisableTracing: disableTracing,
		SampleInterval: -1,
	})
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
	name := "telemetry/route-traced"
	if disableTracing {
		name = "telemetry/route-untraced"
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
