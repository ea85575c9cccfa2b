// Command scgbench measures scgd, the topology-query daemon, end to end and
// layer by layer. One invocation runs one workload:
//
//	scgbench -workload route-hot -seed 1 -seconds 10 -trace 0
//
// The parent process starts several worker processes one after another.
// Each worker runs scgd in process (server.New served by server.Run on a
// loopback listener), sets up the workload, and drives the seeded op list
// over one keep-alive client connection in a closed loop, timing a
// host-speed reference between the ops. The parent scales each worker's
// per-op samples by its reference, pools them, checks the outputs it cannot
// check in a worker, and prints one JSON result line as the last line of
// stdout. With -trace 1 the workers run the traced per-layer measurement
// instead and the line carries the per-layer metrics.
//
// Speed differs between processes of the same binary on a small virtual
// machine, so only more processes average it out: every run uses several
// fresh workers and reports medians or pooled order statistics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart anchors setup_s. Package variables initialise before main
// runs, so this is the earliest point the program itself can observe.
var processStart = time.Now()

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	dir      string
	child    int
	// ops, when positive, overrides the per-worker op count, and tamper,
	// when set, wraps the client transport: the self-test runs workloads
	// for a handful of ops and alters responses in transit.
	ops    int
	tamper func(http.RoundTripper) http.RoundTripper
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of stdout, the benchmark's contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated op list")
	flag.IntVar(&o.seconds, "seconds", 10, "nominal measured seconds per run; sizes the op list")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.StringVar(&o.dir, "dir", filepath.Join(".bench_build", "scgbench", "run"), "scratch directory for store files and span dumps")
	flag.IntVar(&o.child, "child", -1, "worker index; set by the parent process")
	warm := flag.Bool("keepwarm", false, "hold every CPU busy at idle priority; started by the parent process")
	flag.Parse()
	if *warm {
		keepWarm()
	}
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatalf("-trace must be 0 or 1, got %d", trace)
	}
	spec, ok := lookup(o.workload)
	if !ok {
		fatalf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds < 1 {
		fatalf("-seconds must be at least 1, got %d", o.seconds)
	}

	if o.child >= 0 {
		res, err := runWorker(spec, o)
		if err != nil {
			fatalf("worker %d: %v", o.child, err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatalf("worker %d: write result: %v", o.child, err)
		}
		return
	}

	res, err := runParent(spec, o)
	if err != nil {
		fatalf("%s: %v", spec.name, err)
	}
	// A percentile is +Inf once that share of ops failed. JSON has no
	// infinity, so such a metric is left out of a run that is incorrect
	// anyway.
	for name, m := range res.Metrics {
		if math.IsInf(m.Value, 0) {
			delete(res.Metrics, name)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "scgbench: "+format+"\n", args...)
	os.Exit(2)
}

// A run starts no further worker once runBudget has passed, if it has the
// spec's minimum of workers. A run usually takes 10 to 20 s, but the host
// sometimes freezes this virtual machine for seconds at a time, and a run
// must end within 180 s. A run cut short this way is not comparable with a
// full one: the ops of the workers it did not start count as attempted and
// failed, so the run is reported incorrect.
const runBudget = 120 * time.Second

// runParent starts the workload's worker processes one at a time, pools
// their results, and runs the once-per-run output checks.
func runParent(spec *spec, o options) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	defer startKeepWarm(self)()
	var workers []*workerResult
	n := spec.workerCount(o)
	fmt.Fprintf(os.Stderr, "scgbench: %s seed %d: %d worker processes, GOMAXPROCS %d in set-up and %d in the timed window, NumCPU %d\n",
		spec.name, o.seed, n, runtime.GOMAXPROCS(0), timedProcs, runtime.NumCPU())
	for i := 0; i < n; i++ {
		if i >= spec.minWorkers() && time.Since(processStart) > runBudget {
			fmt.Fprintf(os.Stderr, "scgbench: %s: %d of %d workers ran in %v; the run stops here and counts the rest as failed\n",
				spec.name, i, n, time.Since(processStart).Round(time.Second))
			break
		}
		wr, err := startWorker(self, o, i)
		if err != nil {
			return nil, err
		}
		if !o.trace {
			lat := sortedLatencies(wr.LatNS)
			fmt.Fprintf(os.Stderr, "scgbench: %s worker %d: %d ops, %d failed, unscaled: %.1f ops/s, p50 %.1f us, p99 %.1f us, setup %.3f s; null round trip %.2f us, scale %.3f; peak RSS %.1f MiB\n",
				spec.name, i, wr.Ops, wr.Failed, float64(len(lat))/(float64(wr.WallNS)/1e9), orderStat(lat, 0.5)/1e3, orderStat(lat, 0.99)/1e3, wr.SetupS, wr.NullNS/1e3, wr.scale(), float64(wr.PeakRSSKB)/1024)
		}
		workers = append(workers, wr)
	}
	fails, err := spec.verifyRun(o, workers)
	if err != nil {
		return nil, err
	}
	for _, f := range fails {
		fmt.Fprintf(os.Stderr, "scgbench: %s: check failed: %s\n", spec.name, f)
	}
	var res *result
	if o.trace {
		if res, err = tracedResult(spec, workers, len(fails)); err != nil {
			return nil, err
		}
	} else {
		res = endToEndResult(workers, len(fails))
	}
	if unrun := (n - len(workers)) * spec.opsPerWorker(o); unrun > 0 {
		res.Attempted += unrun
		res.Failed += unrun
		res.Correct = false
	}
	return res, nil
}

func startWorker(self string, o options, i int) (*workerResult, error) {
	args := []string{
		"-child", strconv.Itoa(i),
		"-workload", o.workload,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds),
		"-dir", o.dir,
	}
	if o.trace {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("worker %d: %w", i, err)
	}
	var wr workerResult
	if err := json.Unmarshal(out.Bytes(), &wr); err != nil {
		return nil, fmt.Errorf("worker %d: bad result line: %w", i, err)
	}
	return &wr, nil
}

// sortedLatencies converts raw nanosecond samples for order statistics.
func sortedLatencies(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v)
	}
	sort.Float64s(out)
	return out
}

// endToEndResult pools the workers' samples into the five end-to-end
// metrics. Every time is first scaled to the nominal host: multiplied by
// the worker's scale, nullNominalNS over the median null round trip its
// host-speed reference measured between the ops (see hostRef), and every
// rate divided by it. Percentiles are exact order statistics over the
// scaled per-op samples; failed ops enter them as +Inf, so they miss every
// limit. p50 pools every sample of the run. Throughput, set-up time and
// peak resident set are medians over the workers, and so is p99 when every
// worker has minRunOps samples, ten beyond its own p99; with fewer, p99
// pools the run's samples. The host now and then freezes this virtual
// machine for seconds; a median over workers keeps a stall in one worker
// from setting the run's figure, where a pooled rate would read it.
func endToEndResult(workers []*workerResult, runFails int) *result {
	var lat []float64
	var setups, rss, tput, p99s []float64
	perWorkerP99 := true
	attempted, failed := 0, runFails
	for _, w := range workers {
		s := w.scale()
		attempted += w.Ops
		failed += w.Failed
		tput = append(tput, float64(w.Ops-w.Failed)/(float64(w.WallNS)/1e9)/s)
		setups = append(setups, w.SetupS*s)
		rss = append(rss, float64(w.PeakRSSKB)/1024)
		own := sortedLatencies(w.LatNS)
		for i := range own {
			own[i] *= s
		}
		for i := 0; i < w.Failed; i++ {
			own = append(own, math.Inf(1))
		}
		p99s = append(p99s, orderStat(own, 0.99))
		perWorkerP99 = perWorkerP99 && len(own) >= minRunOps
		lat = append(lat, own...)
	}
	sort.Float64s(lat)
	p99 := orderStat(lat, 0.99)
	if perWorkerP99 {
		p99 = median(p99s)
	}
	return &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":        {median(setups), "s"},
			"throughput_ops": {median(tput), "1/s"},
			"p50_us":         {orderStat(lat, 0.50) / 1e3, "us"},
			"p99_us":         {p99 / 1e3, "us"},
			"peak_rss_mb":    {median(rss), "MiB"},
		},
	}
}

// scale converts the worker's times to the nominal host's.
func (w *workerResult) scale() float64 { return nullNominalNS / w.NullNS }

// orderStat returns the nearest-rank q-quantile of sorted samples.
func orderStat(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// peakRSSKB reads the process's resident-set high-water mark (VmHWM).
func peakRSSKB() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}
