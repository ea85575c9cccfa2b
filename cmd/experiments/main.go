// Command experiments regenerates every paper artifact in one run and
// writes the results to a directory: Figure 4/5/6 tables and ASCII plots,
// Table 1, the Theorem 4.7 average-distance table, the §4.1 comparison, the
// exact-diameter growth table, MCMP profiles, simulation summaries, and the
// Figures 1–3 game traces. It is the repo's one-shot reproduction driver.
//
// Observability: every major section is phase-timed (timings printed at the
// end), the §5 communication section additionally exports the worked-example
// MS(2,2) MNB trace as NDJSON and CSV, and -cpuprofile/-memprofile write
// pprof profiles of the whole reproduction run.
//
//	experiments -out results -maxk 10
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/bag"
	"repro/internal/collective"
	"repro/internal/figures"
	"repro/internal/gen"
	"repro/internal/mcmp"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/perm"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/version"
)

func main() {
	var (
		out         = flag.String("out", "results", "output directory")
		maxK        = flag.Int("maxk", 7, "largest k for exhaustive measurements")
		traceFile   = flag.String("trace", "", "MNB example trace file (default <out>/mnb_ms22_trace.ndjson)")
		statsEvery  = flag.Int("stats-every", 1, "coalesce per-step trace samples into windows of n steps")
		cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a pprof heap profile to this file")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("experiments"))
		return
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail(err)
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
	fail(reproduce(*out, *maxK, *traceFile, *statsEvery, func(format string, args ...any) {
		fmt.Printf(format, args...)
	}))

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		fail(err)
		runtime.GC()
		fail(pprof.WriteHeapProfile(f))
		fail(f.Close())
	}
}

// reproduce regenerates every artifact into the existing directory out,
// logging each file written and the phase timings through logf. main runs
// it, and so does the golden test that holds results/ to the code.
func reproduce(out string, maxK int, traceFile string, statsEvery int, logf func(format string, args ...any)) error {
	if traceFile == "" {
		traceFile = filepath.Join(out, "mnb_ms22_trace.ndjson")
	}

	timer := obs.NewPhaseTimer()
	// write keeps the first write error and skips later writes; reproduce
	// returns it before the trace export.
	var werr error
	write := func(name, content string) {
		if werr != nil {
			return
		}
		path := filepath.Join(out, name)
		if werr = os.WriteFile(path, []byte(content), 0o644); werr == nil {
			logf("wrote %s (%d bytes)\n", path, len(content))
		}
	}

	// Figures 1-3: game traces.
	timer.Start("fig1-3-games")
	write("fig1-3_games.txt", gameTraces())

	// Figures 4-6 as tables and plots.
	timer.Start("fig4-6")
	f4, err := figures.Fig4Degrees()
	if err != nil {
		return err
	}
	write("fig4_degrees.txt", figures.RenderSeries("Figure 4: node degree vs log2(N)", f4)+
		"\n"+figures.RenderASCII("Figure 4 (plot)", f4, 0, 0, false))
	f5, err := figures.Fig5Diameters()
	if err != nil {
		return err
	}
	overlay, err := figures.ExactDiameterOverlay(maxK)
	if err != nil {
		return err
	}
	write("fig5_diameters.txt", figures.RenderSeries("Figure 5: diameter vs log2(N)", f5)+
		"\n"+figures.RenderSeries("Figure 5 overlay: exact BFS diameters", overlay)+
		"\n"+figures.RenderASCII("Figure 5 (plot, log y)", f5, 0, 0, true))
	f6, err := figures.Fig6Cost()
	if err != nil {
		return err
	}
	write("fig6_cost.txt", figures.RenderSeries("Figure 6: degree x diameter vs log2(N)", f6)+
		"\n"+figures.RenderASCII("Figure 6 (plot, log y)", f6, 0, 0, true))

	// Table 1 and companions.
	timer.Start("table1")
	t1, err := figures.Table1(maxK)
	if err != nil {
		return err
	}
	write("table1_alpha.txt", figures.RenderTable1(t1))
	avg, err := figures.AvgDistanceTable(3, 2)
	if err != nil {
		return err
	}
	write("thm47_avgdist.txt", figures.RenderAvgDistanceTable(avg))
	cmp, err := figures.CompareTable(3, 2, maxK >= 7)
	if err != nil {
		return err
	}
	write("sec41_compare.txt", figures.RenderCompareTable(cmp))
	growth, err := figures.DiameterGrowthTable(min(maxK, 9),
		append(topology.AllSuperCayleyFamilies(), topology.Star, topology.Rotator, topology.IS))
	if err != nil {
		return err
	}
	write("diameter_growth.txt", figures.RenderGrowthTable(growth))

	// MCMP / Theorem 4.8-4.9.
	timer.Start("mcmp")
	write("thm48_49_mcmp.txt", mcmpReport())

	// Communication tasks, with the worked-example MS(2,2) MNB trace.
	timer.Start("communication")
	report, record := commReport(statsEvery)
	write("sec5_communication.txt", report)
	if werr != nil {
		return werr
	}
	if record != nil {
		if err := writeTrace(record, traceFile); err != nil {
			return err
		}
		csvPath := strings.TrimSuffix(traceFile, filepath.Ext(traceFile)) + ".csv"
		if err := writeTrace(record, csvPath); err != nil {
			return err
		}
		logf("wrote %s and %s (%d step samples)\n", traceFile, csvPath, len(record.Steps))
	}

	logf("phase timings:\n")
	for _, p := range timer.Phases() {
		logf("  %-16s %8.3fs\n", p.Name, p.Seconds)
	}
	return nil
}

// writeTrace writes a run record as NDJSON, or CSV for .csv paths.
func writeTrace(record *obs.RunRecord, path string) (err error) {
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
	if filepath.Ext(path) == ".csv" {
		return record.WriteCSV(f)
	}
	return record.WriteNDJSON(f)
}

func gameTraces() string {
	var b strings.Builder
	u, _ := perm.Parse("5342671")
	ly := bag.MustLayout(3, 2)
	for _, tc := range []struct {
		title   string
		nucleus bag.NucleusStyle
		offset  int
	}{
		{"Figure 1: transposition balls + rotating boxes (colors 2,3,1)", bag.TranspositionNucleus, 1},
		{"Figure 2: insertion balls, same colors", bag.InsertionNucleus, 1},
		{"Figure 3: insertion balls, best color assignment", bag.InsertionNucleus, -1},
	} {
		rules := bag.Rules{Layout: ly, Nucleus: tc.nucleus, Super: bag.RotCompleteSuper}
		var moves []gen.Generator
		var err error
		if tc.offset >= 0 {
			moves, err = bag.SolveWithOffset(rules, u, tc.offset)
		} else {
			moves, err = bag.Solve(rules, u)
		}
		if err != nil {
			fmt.Fprintf(&b, "%s\n  error: %v\n\n", tc.title, err)
			continue
		}
		fmt.Fprintf(&b, "%s\n", tc.title)
		cfg := u.Clone()
		fmt.Fprintf(&b, "  start  %s\n", bag.FormatBoxes(ly, cfg))
		for _, mv := range moves {
			mv.Apply(cfg)
			fmt.Fprintf(&b, "  %-5s  %s\n", mv.Name(), bag.FormatBoxes(ly, cfg))
		}
		fmt.Fprintf(&b, "  solution (%d moves): %v\n\n", len(moves), bag.MoveNames(moves))
	}
	return b.String()
}

func mcmpReport() string {
	// Each family's intercluster profile is an independent weighted-BFS
	// measurement; run them on the worker pool and render rows in the
	// fixed paper order so the committed artifact stays diff-stable.
	// Families whose profile cannot be measured render as empty rows, the
	// same behaviour as the old skip-on-error loop.
	fams := topology.AllSuperCayleyFamilies()
	rows, err := pool.Map(len(fams), 0, func(i int) (string, error) {
		nw, err := topology.New(fams[i], 3, 2)
		if err != nil {
			return "", nil
		}
		prof, err := mcmp.Measure(nw.Graph(), 1)
		if err != nil {
			return "", nil
		}
		bb, err := metrics.BisectionLowerBound(1, float64(nw.Nodes()), prof.AvgInterclusterDistance)
		if err != nil {
			return "", nil
		}
		return fmt.Sprintf("%-18s %3d %5d %8d %9.3f %10.1f\n",
			nw.Name(), prof.InterclusterDegree, prof.ClusterSize,
			prof.InterclusterDiameter, prof.AvgInterclusterDistance, bb), nil
	})
	var b strings.Builder
	fmt.Fprintf(&b, "MCMP intercluster profiles at (3,2), w = 1 (Theorems 4.8-4.9)\n")
	fmt.Fprintf(&b, "%-18s %3s %5s %8s %9s %10s\n", "network", "d_i", "M", "D_inter", "avg_int", "BB bound")
	if err != nil {
		fmt.Fprintf(&b, "error: %v\n", err)
		return b.String()
	}
	for _, row := range rows {
		b.WriteString(row)
	}
	return b.String()
}

// commReport runs the §5 communication tasks on MS(2,2). The all-port MNB
// run is traced and returned as an exportable run record — the worked
// observability example documented in DESIGN.md.
func commReport(statsEvery int) (string, *obs.RunRecord) {
	var b strings.Builder
	nw, err := topology.NewMS(2, 2)
	if err != nil {
		return err.Error(), nil
	}
	topo, err := sim.NewPermTopology(nw)
	if err != nil {
		return err.Error(), nil
	}
	var record *obs.RunRecord
	fmt.Fprintf(&b, "Communication tasks on %s (N=%d)\n\n", nw.Name(), nw.Nodes())
	for _, model := range []sim.PortModel{sim.AllPort, sim.SinglePort} {
		var rec obs.Recorder
		var trace *obs.Trace
		if model == sim.AllPort {
			trace = obs.NewTrace(statsEvery)
			rec = trace
		}
		flood, err := sim.RunBroadcast(topo, model, 0, rec)
		if err != nil {
			return err.Error(), nil
		}
		tree, err := collective.SimulateTreeMNB(nw.Graph(), model, 0)
		if err != nil {
			return err.Error(), nil
		}
		lb := sim.MNBLowerBound(nw.Nodes(), nw.Degree(), model)
		fmt.Fprintf(&b, "MNB %-11s: lower bound %d, tree %d steps (%d hops, gini %.3f), flood %d steps (%d hops)\n",
			model, lb, tree.Steps, tree.TotalHops, tree.LoadGini, flood.Steps, flood.TotalHops)
		if trace != nil {
			fmt.Fprintf(&b, "MNB all-port latency: %s\n", flood.Latency)
			record = trace.Record(
				map[string]string{
					"network": topo.Name(),
					"nodes":   fmt.Sprint(topo.NumNodes()),
					"degree":  fmt.Sprint(topo.Degree()),
					"task":    "mnb",
					"model":   model.String(),
				},
				map[string]float64{
					"steps":       float64(flood.Steps),
					"delivered":   float64(flood.Delivered),
					"total_hops":  float64(flood.TotalHops),
					"latency_p50": flood.Latency.P50,
					"latency_p95": flood.Latency.P95,
					"latency_p99": flood.Latency.P99,
					"latency_max": float64(flood.Latency.Max),
				},
			)
		}
	}
	te, err := sim.RunUnicast(topo, sim.TotalExchange(nw.Nodes()), sim.AllPort, 0, nil)
	if err != nil {
		return err.Error(), nil
	}
	fmt.Fprintf(&b, "TE all-port: %s\n", te)
	return b.String(), record
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
