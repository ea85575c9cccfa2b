package scg

// Benchmark harness: one benchmark per paper artifact (Figures 1–6, Table 1,
// Theorems 4.1–4.9) plus the ablations called out in DESIGN.md. Besides
// ns/op, benchmarks report the paper-relevant quantities (solution lengths,
// diameters, completion steps) as custom metrics so `go test -bench` output
// doubles as the experiment log.

import (
	"fmt"
	"testing"

	"repro/internal/bag"
	"repro/internal/obs"
	"repro/internal/perm"
	"repro/internal/sim"
	"repro/internal/topology"
)

// --- Figures 1-3: game instances ------------------------------------------------

// BenchmarkFigure1RotationGame solves the Figure 1 game: l = 3 boxes of
// n = 2 balls, balls moved by transpositions, boxes by rotations, box colors
// 2,3,1 (offset 1).
func BenchmarkFigure1RotationGame(b *testing.B) {
	rules, err := NewGame(3, 2, TranspositionBalls, RotateBoxesAll)
	if err != nil {
		b.Fatal(err)
	}
	u, err := ParseNode("7254361")
	if err != nil {
		b.Fatal(err)
	}
	var moves []Move
	for i := 0; i < b.N; i++ {
		moves, err = SolveWithOffset(rules, u, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(moves)), "moves")
}

// BenchmarkFigure2InsertionGame solves the Figure 2 instance (source
// 5342671) with insertion moves and the Figure 1 color assignment.
func BenchmarkFigure2InsertionGame(b *testing.B) {
	rules, err := NewGame(3, 2, InsertionBalls, RotateBoxesAll)
	if err != nil {
		b.Fatal(err)
	}
	u, err := ParseNode("5342671")
	if err != nil {
		b.Fatal(err)
	}
	var moves []Move
	for i := 0; i < b.N; i++ {
		moves, err = SolveWithOffset(rules, u, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(moves)), "moves")
}

// BenchmarkFigure3ColorOptimizedGame solves the same instance as Figure 2
// searching all color assignments — the Figure 3 improvement.
func BenchmarkFigure3ColorOptimizedGame(b *testing.B) {
	rules, err := NewGame(3, 2, InsertionBalls, RotateBoxesAll)
	if err != nil {
		b.Fatal(err)
	}
	u, err := ParseNode("5342671")
	if err != nil {
		b.Fatal(err)
	}
	var moves []Move
	for i := 0; i < b.N; i++ {
		moves, err = Solve(rules, u)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(moves)), "moves")
}

// --- Figures 4-6 and Table 1 ------------------------------------------------------

func BenchmarkFigure4Degrees(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Fig4Degrees(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5Diameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Fig5Diameters(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6Cost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Fig6Cost(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Ratios regenerates Table 1 with exact BFS measurements at
// k <= 7.
func BenchmarkTable1Ratios(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Table1(7); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Theorems ------------------------------------------------------------------

// BenchmarkTheorem41CompleteRSDiameter measures the exact diameter of
// complete-RS(3,2) against the Theorem 4.1 bound ⌊2.5k⌋ + l - 4.
func BenchmarkTheorem41CompleteRSDiameter(b *testing.B) {
	nw, err := NewCompleteRotationStar(3, 2)
	if err != nil {
		b.Fatal(err)
	}
	var d int
	for i := 0; i < b.N; i++ {
		d, err = nw.Graph().Diameter()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(d), "diameter")
	if bound, ok := topology.PaperDiameterBound(topology.CompleteRS, 3, 2); ok {
		b.ReportMetric(float64(bound), "paper-bound")
	}
}

// BenchmarkTheorem42MSDiameter measures MS(3,2) against the Theorem 4.2
// bound.
func BenchmarkTheorem42MSDiameter(b *testing.B) {
	nw, err := NewMacroStar(3, 2)
	if err != nil {
		b.Fatal(err)
	}
	var d int
	for i := 0; i < b.N; i++ {
		d, err = nw.Graph().Diameter()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(d), "diameter")
	if bound, ok := topology.PaperDiameterBound(topology.MS, 3, 2); ok {
		b.ReportMetric(float64(bound), "paper-bound")
	}
}

// BenchmarkTheorem43RotatorDiameters measures the insertion-based networks
// of Theorem 4.3 (MR, MIS, complete-RR, complete-RIS at (3,2)).
func BenchmarkTheorem43RotatorDiameters(b *testing.B) {
	fams := []Family{topology.MR, topology.MIS, topology.CompleteRR, topology.CompleteRIS}
	var total int
	for i := 0; i < b.N; i++ {
		total = 0
		for _, fam := range fams {
			nw, err := New(fam, 3, 2)
			if err != nil {
				b.Fatal(err)
			}
			d, err := nw.Graph().Diameter()
			if err != nil {
				b.Fatal(err)
			}
			total += d
		}
	}
	b.ReportMetric(float64(total)/float64(len(fams)), "avg-diameter")
}

// BenchmarkTheorem45AlphaRatio reports the measured α of MS(3,2): Theorem
// 4.5 says suitably constructed instances approach 1.25.
func BenchmarkTheorem45AlphaRatio(b *testing.B) {
	nw, err := NewMacroStar(3, 2)
	if err != nil {
		b.Fatal(err)
	}
	var a float64
	for i := 0; i < b.N; i++ {
		d, err := nw.Graph().Diameter()
		if err != nil {
			b.Fatal(err)
		}
		a, err = AlphaRatio(d, float64(nw.Nodes()), nw.Degree())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(a, "alpha")
}

// BenchmarkTheorem47AverageDistance reports the exact average distance and
// its ratio to the Moore packing bound (Theorem 4.7).
func BenchmarkTheorem47AverageDistance(b *testing.B) {
	nw, err := NewMacroStar(3, 2)
	if err != nil {
		b.Fatal(err)
	}
	var avg float64
	for i := 0; i < b.N; i++ {
		avg, err = nw.Graph().AverageDistance()
		if err != nil {
			b.Fatal(err)
		}
	}
	lb, err := AvgDistanceLowerBound(float64(nw.Nodes()), nw.Degree())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(avg, "avg-distance")
	b.ReportMetric(avg/lb, "alpha-avg")
}

// BenchmarkTheorem48InterclusterMetrics measures the MCMP intercluster
// profile of MS(3,2) (Theorem 4.8).
func BenchmarkTheorem48InterclusterMetrics(b *testing.B) {
	nw, err := NewMacroStar(3, 2)
	if err != nil {
		b.Fatal(err)
	}
	var prof *MCMPProfile
	for i := 0; i < b.N; i++ {
		prof, err = MeasureMCMP(nw, 1.0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(prof.InterclusterDiameter), "inter-diameter")
	b.ReportMetric(prof.AvgInterclusterDistance, "inter-avg")
}

// BenchmarkTheorem49BisectionBounds computes the Theorem 4.9 bisection
// bandwidth lower bound for MS(3,2) and the hypercube reference value.
func BenchmarkTheorem49BisectionBounds(b *testing.B) {
	nw, err := NewMacroStar(3, 2)
	if err != nil {
		b.Fatal(err)
	}
	var bb float64
	for i := 0; i < b.N; i++ {
		prof, err := MeasureMCMP(nw, 1.0)
		if err != nil {
			b.Fatal(err)
		}
		bb, err = BisectionLowerBound(1.0, float64(nw.Nodes()), prof.AvgInterclusterDistance)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(bb, "bb-lower-bound")
	hyp, err := NewHypercube(13)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(hyp.BisectionLinks)/float64(hyp.Degree), "hypercube-bb")
}

// --- communication tasks (§1, §5) -----------------------------------------------

func benchBroadcast(b *testing.B, build func() (SimTopology, error), model PortModel) {
	topo, err := build()
	if err != nil {
		b.Fatal(err)
	}
	var res *sim.Result
	for i := 0; i < b.N; i++ {
		res, err = RunBroadcast(topo, model, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Steps), "steps")
}

func BenchmarkMNBAllPortMS22(b *testing.B) {
	benchBroadcast(b, func() (SimTopology, error) {
		nw, err := NewMacroStar(2, 2)
		if err != nil {
			return nil, err
		}
		return NewSimNetwork(nw)
	}, AllPort)
}

func BenchmarkMNBSinglePortMS22(b *testing.B) {
	benchBroadcast(b, func() (SimTopology, error) {
		nw, err := NewMacroStar(2, 2)
		if err != nil {
			return nil, err
		}
		return NewSimNetwork(nw)
	}, SinglePort)
}

func BenchmarkMNBAllPortStar5(b *testing.B) {
	benchBroadcast(b, func() (SimTopology, error) {
		nw, err := NewStarGraph(5)
		if err != nil {
			return nil, err
		}
		return NewSimNetwork(nw)
	}, AllPort)
}

func BenchmarkMNBAllPortHypercube7(b *testing.B) {
	benchBroadcast(b, func() (SimTopology, error) { return NewSimHypercube(7) }, AllPort)
}

func benchTE(b *testing.B, build func() (SimTopology, error), model PortModel) {
	topo, err := build()
	if err != nil {
		b.Fatal(err)
	}
	pkts := TotalExchange(topo.NumNodes())
	var res *sim.Result
	for i := 0; i < b.N; i++ {
		res, err = RunUnicast(topo, pkts, model, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Steps), "steps")
	b.ReportMetric(float64(res.MaxLinkLoad), "max-link-load")
}

func BenchmarkTotalExchangeMS22(b *testing.B) {
	benchTE(b, func() (SimTopology, error) {
		nw, err := NewMacroStar(2, 2)
		if err != nil {
			return nil, err
		}
		return NewSimNetwork(nw)
	}, AllPort)
}

func BenchmarkTotalExchangeHypercube7(b *testing.B) {
	benchTE(b, func() (SimTopology, error) { return NewSimHypercube(7) }, AllPort)
}

func BenchmarkRandomRoutingCompleteRS32(b *testing.B) {
	nw, err := NewCompleteRotationStar(3, 2)
	if err != nil {
		b.Fatal(err)
	}
	topo, err := NewSimNetwork(nw)
	if err != nil {
		b.Fatal(err)
	}
	pkts := sim.RandomRouting(topo.NumNodes(), 5040, 11)
	var res *sim.Result
	for i := 0; i < b.N; i++ {
		res, err = RunUnicast(topo, pkts, AllPort, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Steps), "steps")
	b.ReportMetric(float64(res.MaxLinkLoad)/res.AvgLinkLoad, "load-imbalance")
}

// --- observability overhead -------------------------------------------------------

func benchUnicastRecorder(b *testing.B, newRec func() obs.Recorder) {
	nw, err := NewMacroStar(2, 2)
	if err != nil {
		b.Fatal(err)
	}
	topo, err := NewSimNetwork(nw)
	if err != nil {
		b.Fatal(err)
	}
	pkts := sim.RandomRouting(topo.NumNodes(), 2000, 3)
	var res *sim.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = RunUnicast(topo, pkts, AllPort, 0, newRec())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Steps), "steps")
	b.ReportMetric(res.Latency.P99, "latency-p99")
}

// BenchmarkRunUnicastNoop measures the disabled-recorder fast path: a nil
// Recorder skips all instrumentation work (compare with
// BenchmarkRunUnicastTrace for the per-step tracing overhead).
func BenchmarkRunUnicastNoop(b *testing.B) {
	benchUnicastRecorder(b, func() obs.Recorder { return nil })
}

// BenchmarkRunUnicastTrace runs the same workload with a full per-step
// Trace attached (stats-every 1: step samples, events, load Gini per step).
func BenchmarkRunUnicastTrace(b *testing.B) {
	benchUnicastRecorder(b, func() obs.Recorder { return NewTrace(1) })
}

// --- routing throughput -----------------------------------------------------------

// BenchmarkRoutingSolvers measures raw routing (game-solving) speed on a
// 13-symbol instance (N = 13! ≈ 6.2·10⁹ nodes — far beyond enumeration,
// demonstrating that routing never needs the explicit graph).
func BenchmarkRoutingSolvers(b *testing.B) {
	cases := []struct {
		name string
		mk   func() (*Network, error)
	}{
		{"MS(4,3)", func() (*Network, error) { return NewMacroStar(4, 3) }},
		{"complete-RS(4,3)", func() (*Network, error) { return NewCompleteRotationStar(4, 3) }},
		{"MR(4,3)", func() (*Network, error) { return NewMacroRotator(4, 3) }},
		{"complete-RIS(4,3)", func() (*Network, error) { return New(topology.CompleteRIS, 4, 3) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			nw, err := c.mk()
			if err != nil {
				b.Fatal(err)
			}
			rng := perm.NewRNG(7)
			dst := IdentityNode(nw.K())
			total := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := perm.Random(nw.K(), rng)
				moves, err := nw.Route(src, dst)
				if err != nil {
					b.Fatal(err)
				}
				total += len(moves)
			}
			b.ReportMetric(float64(total)/float64(b.N), "avg-path-len")
		})
	}
}

// --- ablations (DESIGN.md §5) ------------------------------------------------------

// BenchmarkAblationSuperMoves compares swap vs rotation-pair vs
// complete-rotation box moves with the same nucleus on identical random
// instances (the §2.2 design question).
func BenchmarkAblationSuperMoves(b *testing.B) {
	styles := []struct {
		name  string
		super bag.SuperStyle
	}{
		{"swap", SwapBoxes},
		{"rot-pair", RotateBoxesPair},
		{"rot-complete", RotateBoxesAll},
	}
	for _, st := range styles {
		b.Run(st.name, func(b *testing.B) {
			rules, err := NewGame(4, 3, TranspositionBalls, st.super)
			if err != nil {
				b.Fatal(err)
			}
			rng := perm.NewRNG(3)
			total := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := perm.Random(13, rng)
				moves, err := Solve(rules, u)
				if err != nil {
					b.Fatal(err)
				}
				total += len(moves)
			}
			b.ReportMetric(float64(total)/float64(b.N), "avg-moves")
		})
	}
}

// BenchmarkAblationNucleusMoves compares transposition vs insertion ball
// moves (the §2.3 improvement: insertion play avoids most color-0 waste).
func BenchmarkAblationNucleusMoves(b *testing.B) {
	styles := []struct {
		name    string
		nucleus bag.NucleusStyle
	}{
		{"transposition", TranspositionBalls},
		{"insertion", InsertionBalls},
	}
	for _, st := range styles {
		b.Run(st.name, func(b *testing.B) {
			rules, err := NewGame(4, 3, st.nucleus, SwapBoxes)
			if err != nil {
				b.Fatal(err)
			}
			rng := perm.NewRNG(5)
			total := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := perm.Random(13, rng)
				moves, err := Solve(rules, u)
				if err != nil {
					b.Fatal(err)
				}
				total += len(moves)
			}
			b.ReportMetric(float64(total)/float64(b.N), "avg-moves")
		})
	}
}

// BenchmarkAblationColorAssignment compares fixed color offset 0 with the
// best-of-l search (the Figure 2 vs Figure 3 freedom).
func BenchmarkAblationColorAssignment(b *testing.B) {
	rules, err := NewGame(4, 3, InsertionBalls, RotateBoxesAll)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fixed-offset", func(b *testing.B) {
		rng := perm.NewRNG(9)
		total := 0
		for i := 0; i < b.N; i++ {
			u := perm.Random(13, rng)
			moves, err := SolveWithOffset(rules, u, 0)
			if err != nil {
				b.Fatal(err)
			}
			total += len(moves)
		}
		b.ReportMetric(float64(total)/float64(b.N), "avg-moves")
	})
	b.Run("best-offset", func(b *testing.B) {
		rng := perm.NewRNG(9)
		total := 0
		for i := 0; i < b.N; i++ {
			u := perm.Random(13, rng)
			moves, err := Solve(rules, u)
			if err != nil {
				b.Fatal(err)
			}
			total += len(moves)
		}
		b.ReportMetric(float64(total)/float64(b.N), "avg-moves")
	})
}

// BenchmarkAblationBalance evaluates Theorem 4.4: degree across (l,n)
// splits of k-1 = 12 — balanced l = Θ(n) minimizes it.
func BenchmarkAblationBalance(b *testing.B) {
	splits := []struct{ l, n int }{{2, 6}, {3, 4}, {4, 3}, {6, 2}}
	var degrees []float64
	for i := 0; i < b.N; i++ {
		degrees = degrees[:0]
		for _, s := range splits {
			d, err := DegreeFormula(MSFamily, s.l, s.n)
			if err != nil {
				b.Fatal(err)
			}
			degrees = append(degrees, float64(d))
		}
	}
	for i, s := range splits {
		b.ReportMetric(degrees[i], fmt.Sprintf("deg-%dx%d", s.l, s.n))
	}
}

// BenchmarkAblationRankedBFS compares the flat-array BFS (rank-indexed)
// against a hash-map frontier BFS on MS(3,2) — the data-structure choice
// that makes exhaustive measurement feasible.
func BenchmarkAblationRankedBFS(b *testing.B) {
	nw, err := NewMacroStar(3, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("rank-array", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := nw.Graph().Diameter(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hash-map", func(b *testing.B) {
		gens := nw.Graph().GeneratorSet().Perms()
		for i := 0; i < b.N; i++ {
			dist := map[string]int{IdentityNode(7).String(): 0}
			queue := []Node{IdentityNode(7)}
			maxD := 0
			for head := 0; head < len(queue); head++ {
				u := queue[head]
				d := dist[u.String()]
				for _, g := range gens {
					v := u.Compose(g)
					if _, seen := dist[v.String()]; !seen {
						dist[v.String()] = d + 1
						if d+1 > maxD {
							maxD = d + 1
						}
						queue = append(queue, v)
					}
				}
			}
			if maxD != 13 {
				b.Fatalf("hash-map BFS diameter %d", maxD)
			}
		}
	})
}
