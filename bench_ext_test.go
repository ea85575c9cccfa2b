package scg

// Benchmarks for the extension modules: the Theorem 4.7 average-distance
// table, structured-vs-flood MNB, fault-tolerance trials, and the §3.3.4
// variant ablations.

import (
	"fmt"
	"testing"

	"repro/internal/figures"
	"repro/internal/perm"
)

// BenchmarkTheorem47AvgDistanceTable regenerates the average-distance /
// Moore-bound table at (3,2) — the measured side of Theorem 4.7.
func BenchmarkTheorem47AvgDistanceTable(b *testing.B) {
	var rows []figures.AvgDistanceRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = figures.AvgDistanceTable(3, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	worst := 0.0
	for _, r := range rows {
		if r.Ratio > worst {
			worst = r.Ratio
		}
	}
	b.ReportMetric(worst, "worst-alpha-avg")
}

// BenchmarkMNBTreeVsFlood compares the pipelined spanning-tree MNB bound
// with the flooding simulator's measured completion.
func BenchmarkMNBTreeVsFlood(b *testing.B) {
	nw, err := NewMacroStar(2, 2)
	if err != nil {
		b.Fatal(err)
	}
	topo, err := NewSimNetwork(nw)
	if err != nil {
		b.Fatal(err)
	}
	var bound int64
	var flood int
	for i := 0; i < b.N; i++ {
		tree, err := NewBroadcastTree(nw, IdentityNode(5))
		if err != nil {
			b.Fatal(err)
		}
		bound = MNBPipelinedBound(tree, AllPort, nw.Degree())
		res, err := RunBroadcast(topo, AllPort, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		flood = res.Steps
	}
	b.ReportMetric(float64(bound), "tree-bound")
	b.ReportMetric(float64(flood), "flood-steps")
}

// BenchmarkFaultTolerance runs the random-failure trial battery on MS(2,2).
func BenchmarkFaultTolerance(b *testing.B) {
	nw, err := NewMacroStar(2, 2)
	if err != nil {
		b.Fatal(err)
	}
	var tr *FaultTrial
	for i := 0; i < b.N; i++ {
		tr, err = RandomFaultTrials(nw, 4, 10, 7)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.ConnectedRuns)/float64(tr.Runs), "connected-frac")
	b.ReportMetric(tr.MeanDistInflation, "dist-inflation")
}

// BenchmarkAblationRotationSubset sweeps rotation subsets of complete-RS
// between the RS pair and the full set (§3.3.4): degree rises, exact
// diameter falls.
func BenchmarkAblationRotationSubset(b *testing.B) {
	subsets := [][]int{{1, 4}, {1, 2}, {1, 2, 4}, {1, 2, 3, 4}}
	for _, exps := range subsets {
		b.Run(fmt.Sprintf("R%v", exps), func(b *testing.B) {
			var d, deg int
			for i := 0; i < b.N; i++ {
				nw, err := NewRotationSubsetStar(5, 1, exps)
				if err != nil {
					b.Fatal(err)
				}
				deg = nw.Degree()
				d, err = nw.Graph().Diameter()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(deg), "degree")
			b.ReportMetric(float64(d), "diameter")
		})
	}
}

// BenchmarkAblationRecursiveMS compares flat MS(2,4) with recursive
// MS(2;2,2): the recursive variant trades one unit of degree for longer
// routes.
func BenchmarkAblationRecursiveMS(b *testing.B) {
	type variant struct {
		name string
		mk   func() (*Network, error)
	}
	for _, v := range []variant{
		{"flat-MS(2,4)", func() (*Network, error) { return NewMacroStar(2, 4) }},
		{"recursive-MS(2;2,2)", func() (*Network, error) { return NewRecursiveMS(2, 2, 2) }},
	} {
		b.Run(v.name, func(b *testing.B) {
			nw, err := v.mk()
			if err != nil {
				b.Fatal(err)
			}
			rng := perm.NewRNG(3)
			total := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := perm.Random(9, rng)
				moves, err := nw.Route(src, IdentityNode(9))
				if err != nil {
					b.Fatal(err)
				}
				total += len(moves)
			}
			b.ReportMetric(float64(nw.Degree()), "degree")
			b.ReportMetric(float64(total)/float64(b.N), "avg-route-len")
		})
	}
}

// BenchmarkSIPQuotient measures the super-index-permutation quotient of
// §4.3: exact diameter and intercluster diameter of SIP(3,2) versus its
// Cayley cover MS(3,2).
func BenchmarkSIPQuotient(b *testing.B) {
	g, err := NewSIP(3, 2, TranspositionBalls, SwapBoxes)
	if err != nil {
		b.Fatal(err)
	}
	var d int
	var prof *IPInterclusterProfile
	for i := 0; i < b.N; i++ {
		d, err = g.Diameter()
		if err != nil {
			b.Fatal(err)
		}
		prof, err = g.MeasureIntercluster()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(d), "sip-diameter")
	b.ReportMetric(float64(prof.InterclusterDiameter), "sip-inter-diameter")
	b.ReportMetric(float64(prof.ClusterSize), "sip-cluster")
}

// BenchmarkTreeMNB measures the structured translated-tree MNB of §5
// against the flooding baseline.
func BenchmarkTreeMNB(b *testing.B) {
	nw, err := NewMacroStar(2, 2)
	if err != nil {
		b.Fatal(err)
	}
	var res *TreeMNBResult
	for i := 0; i < b.N; i++ {
		res, err = SimulateTreeMNB(nw, SinglePort, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Steps), "steps")
	b.ReportMetric(float64(res.TotalHops), "hops")
	b.ReportMetric(res.LoadGini, "gini")
}
