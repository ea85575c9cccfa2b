// Command netprops builds a network instance and reports its topological
// properties: degree, size, diameter bounds, exact diameter and average
// distance (BFS, when enumerable), α ratios, and the MCMP intercluster
// profile of §4.3.
//
// Exact measurements run on the parallel BFS engine automatically on
// multi-core machines. -sweep measures every enumerable instance of the
// family up to a dimension cap, with independent instances measured
// concurrently on a bounded worker pool and rows printed in a fixed
// (k, l) order regardless of scheduling.
//
// Examples:
//
//	netprops -family MS -l 3 -n 2 -exact -mcmp
//	netprops -family complete-RIS -l 4 -n 3
//	netprops -family star -k 10 -exact
//	netprops -family MS -sweep 9
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/mcmp"
	"repro/internal/metrics"
	"repro/internal/perm"
	"repro/internal/pool"
	"repro/internal/topology"
	"repro/internal/version"
)

func main() {
	var (
		family      = flag.String("family", "MS", "family: star | rotator | pancake | bubble-sort | transposition | IS | MS | RS | complete-RS | MR | RR | complete-RR | MIS | RIS | complete-RIS")
		l           = flag.Int("l", 3, "number of super-symbols (super Cayley families)")
		n           = flag.Int("n", 2, "super-symbol length (or k-1 for nucleus-only families)")
		k           = flag.Int("k", 0, "dimension for nucleus-only families (overrides -n)")
		exact       = flag.Bool("exact", false, "measure exact diameter and average distance by BFS")
		doMCMP      = flag.Bool("mcmp", false, "measure the MCMP intercluster profile (super Cayley families)")
		w           = flag.Float64("w", 1.0, "per-node off-chip bandwidth for the MCMP model")
		stretch     = flag.Int("stretch", 0, "sample this many pairs and compare solver routes to exact shortest paths")
		dot         = flag.Bool("dot", false, "write the graph in Graphviz DOT format to stdout and exit")
		sweep       = flag.Int("sweep", 0, "measure every enumerable instance of the family with k <= this, concurrently")
		workers     = flag.Int("workers", 0, "worker-pool size for -sweep (0 = GOMAXPROCS)")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("netprops"))
		return
	}

	fam, err := familyByName(*family)
	fail(err)

	if *sweep > 0 {
		fail(runSweep(fam, *sweep, *workers))
		return
	}

	nn := *n
	if *k > 0 {
		nn = *k - 1
	}
	nw, err := topology.New(fam, *l, nn)
	fail(err)

	if *dot {
		fail(nw.Graph().WriteDOT(os.Stdout, 0))
		return
	}

	fmt.Println(nw)
	fmt.Printf("degree:              %d\n", nw.Degree())
	fmt.Printf("intercluster degree: %d\n", nw.InterclusterDegree())
	fmt.Printf("diameter bound:      %d (this repo's routing algorithm)\n", nw.DiameterUpperBound())
	if pb, ok := topology.PaperDiameterBound(nw.Family(), nw.L(), nw.N()); ok {
		fmt.Printf("paper bound:         %d\n", pb)
	}
	var prof *core.BFSResult
	if *exact {
		// One BFS yields the whole distance profile: diameter and average
		// distance together.
		prof, err = nw.Graph().ExactProfile()
		fail(err)
	}
	rep := boundsReport(nw, prof)
	if rep.DL != 0 {
		fmt.Printf("universal D_L(N,d):  %.3f (%s bound)\n", rep.DL, rep.direction)
	}
	if prof != nil {
		fmt.Printf("exact diameter:      %d\n", prof.Eccentricity)
		fmt.Printf("exact avg distance:  %.4f\n", prof.Mean)
		if rep.Alpha != 0 {
			fmt.Printf("alpha (D/D_L):       %.4f\n", rep.Alpha)
		}
		if rep.AlphaAvg != 0 {
			fmt.Printf("alpha-avg:           %.4f\n", rep.AlphaAvg)
		}
	}

	if *stretch > 0 {
		st, err := nw.Graph().MeasureStretch(*stretch, 1, func(src, dst perm.Perm) (int, error) {
			return nw.RouteLen(src, dst)
		})
		fail(err)
		fmt.Printf("routing stretch:     mean %.3f, max %.3f, optimal %d/%d pairs\n",
			st.MeanStretch, st.MaxStretch, st.Optimal, st.Pairs)
	}

	if *doMCMP {
		prof, err := mcmp.Measure(nw.Graph(), *w)
		fail(err)
		fmt.Printf("cluster size M:      %d\n", prof.ClusterSize)
		fmt.Printf("intercluster diam:   %d\n", prof.InterclusterDiameter)
		fmt.Printf("intercluster avg:    %.4f\n", prof.AvgInterclusterDistance)
		fmt.Printf("off-chip link bw:    %.4f (w=%.2f)\n", prof.LinkBandwidth, *w)
		bb, err := metrics.BisectionLowerBound(*w, float64(nw.Nodes()), prof.AvgInterclusterDistance)
		fail(err)
		fmt.Printf("bisection BB >=      %.1f (Theorem 4.9)\n", bb)
	}
}

// bounds is what netprops reports against the Moore-type lower bounds:
// D_L and, given an exact profile, α = D/D_L and the average distance over
// its bound. Each bound is taken in the network's direction
// (metrics.LowerBounds, which scgd's /v1/metrics and the figures tables
// share); a field the instance is too small for reads 0.
type bounds struct {
	DL, Alpha, AlphaAvg float64
	direction           string
}

// boundsReport computes bounds for nw; prof may be nil (no -exact).
func boundsReport(nw *topology.Network, prof *core.BFSResult) bounds {
	lb := metrics.LowerBounds(float64(nw.Nodes()), nw.Degree(), nw.Undirected())
	rep := bounds{DL: lb.DL, direction: "directed"}
	if nw.Undirected() {
		rep.direction = "undirected"
	}
	if prof != nil {
		rep.Alpha = lb.Alpha(prof.Eccentricity)
		rep.AlphaAvg = lb.AvgRatio(prof.Mean)
	}
	return rep
}

// sweepInstances materializes every constructible instance of fam with
// k <= maxK, in the deterministic (k, l) order topology.EnumerateInstances
// defines (shared with scgctl warm, so both tools sweep the same sets).
func sweepInstances(fam topology.Family, maxK int) ([]*topology.Network, error) {
	ins, err := topology.EnumerateInstances(fam, maxK)
	if err != nil {
		return nil, err
	}
	nws := make([]*topology.Network, 0, len(ins))
	for _, in := range ins {
		nw, err := topology.New(in.Family, in.L, in.N)
		if err != nil {
			return nil, err
		}
		nws = append(nws, nw)
	}
	return nws, nil
}

// runSweep measures every enumerable instance of fam with k <= maxK. The
// exact BFS measurements are independent, so they run concurrently on the
// worker pool; results are gathered by index and printed in the fixed
// enumeration order, keeping the output diff-stable.
func runSweep(fam topology.Family, maxK, workers int) error {
	if maxK > core.MaxExplicitK {
		return fmt.Errorf("netprops: -sweep %d exceeds MaxExplicitK=%d", maxK, core.MaxExplicitK)
	}
	nws, err := sweepInstances(fam, maxK)
	if err != nil {
		return err
	}
	if len(nws) == 0 {
		return fmt.Errorf("netprops: no enumerable %v instances with k <= %d", fam, maxK)
	}
	profiles, err := pool.Map(len(nws), workers, func(i int) (*core.BFSResult, error) {
		return nws[i].Graph().ExactProfile()
	})
	if err != nil {
		return err
	}
	fmt.Printf("exact sweep: %v instances with k <= %d\n", fam, maxK)
	fmt.Printf("%-20s %3s %9s %7s %9s %9s\n", "network", "k", "N", "degree", "diameter", "avg dist")
	for i, nw := range nws {
		p := profiles[i]
		fmt.Printf("%-20s %3d %9d %7d %9d %9.4f\n",
			nw.Name(), nw.K(), nw.Nodes(), nw.Degree(), p.Eccentricity, p.Mean)
	}
	return nil
}

func familyByName(name string) (topology.Family, error) {
	f, err := topology.ParseFamily(name)
	if err != nil {
		return 0, fmt.Errorf("unknown family %q", name)
	}
	return f, nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "netprops:", err)
		os.Exit(1)
	}
}
