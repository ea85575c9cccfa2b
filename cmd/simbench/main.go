// Command simbench runs the packet-level simulator on a chosen network and
// communication task: multinode broadcast (MNB), total exchange (TE), random
// routing, permutation routing, or open-loop traffic, under the single-port
// or all-port model.
//
// Observability: -trace exports a full run record (config, per-step series,
// typed events, latency and link-load histograms, phase timings, summary) as
// NDJSON, or as a per-step CSV when the file name ends in .csv;
// -stats-every coalesces the step series into fixed windows; -cpuprofile
// and -memprofile write pprof profiles of the run.
//
// Examples:
//
//	simbench -family MS -l 2 -n 2 -task mnb -model all
//	simbench -family complete-RS -l 3 -n 2 -task random -count 5040
//	simbench -baseline hypercube -dim 7 -task te -trace te.ndjson
//	simbench -task openloop -rate 0.3 -trace run.ndjson -stats-every 10
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/version"
)

func main() {
	var (
		family   = flag.String("family", "MS", "permutation network family")
		l        = flag.Int("l", 2, "super-symbol count")
		n        = flag.Int("n", 2, "super-symbol length (k-1 for nucleus-only families)")
		baseline = flag.String("baseline", "", "use a baseline instead: hypercube | torus2d | torus3d")
		dim      = flag.Int("dim", 7, "baseline dimension (hypercube d, torus radix)")
		task     = flag.String("task", "mnb", "mnb | te | random | perm | openloop")
		model    = flag.String("model", "all", "all | single")
		count    = flag.Int("count", 1000, "packet count for -task random")
		rate     = flag.Float64("rate", 0.1, "injection rate for -task openloop (packets/node/step)")
		steps    = flag.Int("steps", 300, "horizon for -task openloop")
		seed     = flag.Uint64("seed", 1, "workload seed")
		bufCap   = flag.Int("bufcap", 0, "finite per-link buffer capacity (0 = unbounded; te/random/perm)")

		traceFile   = flag.String("trace", "", "write the run record to this file (NDJSON, or CSV when it ends in .csv)")
		statsEvery  = flag.Int("stats-every", 1, "coalesce per-step trace samples into windows of n steps")
		cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a pprof heap profile to this file")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("simbench"))
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		fail(err)
		fail(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			fail(f.Close())
		}()
	}

	timer := obs.NewPhaseTimer()
	timer.Start("build-topology")
	topo, err := buildTopology(*baseline, *dim, *family, *l, *n)
	fail(err)
	pm := sim.AllPort
	if *model == "single" {
		pm = sim.SinglePort
	}

	var trace *obs.Trace
	var rec obs.Recorder // stays nil (tracing off) unless -trace is given
	if *traceFile != "" {
		trace = obs.NewTrace(*statsEvery)
		rec = trace
	}

	fmt.Printf("network: %s (N=%d, degree %d)\n", topo.Name(), topo.NumNodes(), topo.Degree())
	fmt.Printf("task:    %s, %s model\n", *task, pm)

	config := map[string]string{
		"network": topo.Name(),
		"nodes":   fmt.Sprint(topo.NumNodes()),
		"degree":  fmt.Sprint(topo.Degree()),
		"task":    *task,
		"model":   pm.String(),
		"seed":    fmt.Sprint(*seed),
	}

	timer.Start("workload")
	var pkts []sim.Packet
	switch *task {
	case "te":
		pkts = sim.TotalExchange(topo.NumNodes())
	case "random":
		pkts = sim.RandomRouting(topo.NumNodes(), *count, *seed)
	case "perm":
		pkts = sim.PermutationRouting(topo.NumNodes(), *seed)
	}

	timer.Start("simulate")
	var summary map[string]float64
	switch *task {
	case "mnb":
		res, err := sim.RunBroadcast(topo, pm, 0, rec)
		fail(err)
		fmt.Printf("MNB lower bound: %d steps\n", sim.MNBLowerBound(topo.NumNodes(), topo.Degree(), pm))
		printResult(res)
		summary = resultSummary(res)
	case "te", "random", "perm":
		var res *sim.Result
		if *bufCap > 0 {
			config["bufcap"] = fmt.Sprint(*bufCap)
			res, err = sim.RunUnicastBuffered(topo, pkts, pm, *bufCap, 0, rec)
		} else {
			res, err = sim.RunUnicast(topo, pkts, pm, 0, rec)
		}
		fail(err)
		printResult(res)
		summary = resultSummary(res)
	case "openloop":
		config["rate"] = fmt.Sprint(*rate)
		config["steps"] = fmt.Sprint(*steps)
		res, err := sim.RunOpenLoop(topo, *rate, *steps, pm, *seed, rec)
		fail(err)
		fmt.Printf("result:  %s\n", res)
		summary = openLoopSummary(res)
	default:
		fail(fmt.Errorf("unknown task %q", *task))
	}

	if trace != nil {
		timer.Start("export")
		record := trace.Record(config, summary)
		record.Phases = timer.Phases()
		fail(writeRecord(record, *traceFile))
		fmt.Printf("trace:   wrote %s (%d step samples, %d events)\n",
			*traceFile, len(record.Steps), len(record.Events))
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		fail(err)
		runtime.GC()
		fail(pprof.WriteHeapProfile(f))
		fail(f.Close())
	}
}

func printResult(res *sim.Result) {
	fmt.Printf("result:  %s\n", res)
	if res.AvgLinkLoad > 0 {
		fmt.Printf("balance: max/avg link load = %.3f\n", float64(res.MaxLinkLoad)/res.AvgLinkLoad)
	}
}

func resultSummary(res *sim.Result) map[string]float64 {
	return map[string]float64{
		"steps":         float64(res.Steps),
		"delivered":     float64(res.Delivered),
		"total_hops":    float64(res.TotalHops),
		"max_link_load": float64(res.MaxLinkLoad),
		"avg_link_load": res.AvgLinkLoad,
		"max_queue":     float64(res.MaxQueueLen),
		"load_gini":     res.LoadGini,
		"latency_p50":   res.Latency.P50,
		"latency_p95":   res.Latency.P95,
		"latency_p99":   res.Latency.P99,
		"latency_max":   float64(res.Latency.Max),
		"latency_mean":  res.Latency.Mean,
	}
}

func openLoopSummary(res *sim.OpenLoopResult) map[string]float64 {
	return map[string]float64{
		"offered":      res.Offered,
		"throughput":   res.Throughput,
		"injected":     float64(res.Injected),
		"delivered":    float64(res.Delivered),
		"dropped":      float64(res.Dropped),
		"backlog":      float64(res.Backlog),
		"latency_mean": res.MeanLatency,
		"latency_p50":  res.Latency.P50,
		"latency_p95":  res.Latency.P95,
		"latency_p99":  res.Latency.P99,
		"latency_max":  float64(res.Latency.Max),
	}
}

func writeRecord(record *obs.RunRecord, path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// A close error is a write error (buffered data may flush at close).
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	if strings.HasSuffix(path, ".csv") {
		return record.WriteCSV(f)
	}
	return record.WriteNDJSON(f)
}

func buildTopology(baseline string, dim int, family string, l, n int) (sim.Topology, error) {
	switch baseline {
	case "hypercube":
		return sim.NewHypercubeTopology(dim)
	case "torus2d":
		return sim.NewTorusTopology(dim, 2)
	case "torus3d":
		return sim.NewTorusTopology(dim, 3)
	case "":
	default:
		return nil, fmt.Errorf("unknown baseline %q", baseline)
	}
	all := append(topology.AllSuperCayleyFamilies(),
		topology.Star, topology.Rotator, topology.IS)
	for _, f := range all {
		if f.String() == family {
			nw, err := topology.New(f, l, n)
			if err != nil {
				return nil, err
			}
			return sim.NewPermTopology(nw)
		}
	}
	return nil, fmt.Errorf("unknown family %q", family)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
}
