// Engine-vs-oracle BFS equivalence across every network family. This
// lives in an external test package so it can build instances through
// internal/topology (which imports core) without an import cycle.
package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mcmp"
	"repro/internal/perm"
	"repro/internal/topology"
)

// equivalenceInstances enumerates every constructible instance with
// k <= maxK: each super Cayley family at every (l, n) with l >= 2, n >= 1,
// and each nucleus-only family at every dimension.
func equivalenceInstances(t *testing.T, maxK int) []*topology.Network {
	t.Helper()
	var nws []*topology.Network
	for _, fam := range topology.AllSuperCayleyFamilies() {
		for l := 2; l*1+1 <= maxK; l++ {
			for n := 1; l*n+1 <= maxK; n++ {
				nw, err := topology.New(fam, l, n)
				if err != nil {
					t.Fatalf("New(%v, %d, %d): %v", fam, l, n, err)
				}
				nws = append(nws, nw)
			}
		}
	}
	for k := 3; k <= maxK; k++ {
		for _, fam := range []topology.Family{
			topology.Star, topology.Rotator, topology.Pancake,
			topology.BubbleSort, topology.TranspositionNet, topology.IS,
		} {
			nw, err := topology.New(fam, 1, k-1)
			if err != nil {
				t.Fatalf("nucleus family at k=%d: %v", k, err)
			}
			nws = append(nws, nw)
		}
	}
	return nws
}

// TestEngineMatchesOracle checks that the bitset engine at several worker
// counts (including workers > frontier width, which exercises the shard
// clamping, and 60, whose last shards start past the end of k = 7's 79
// and k = 8's 630 words) returns a reflect.DeepEqual-identical BFSResult
// to the queue oracle for every family at every enumerable size with
// k <= 8.
func TestEngineMatchesOracle(t *testing.T) {
	maxK := 8
	if testing.Short() {
		maxK = 6
	}
	for _, nw := range equivalenceInstances(t, maxK) {
		g := nw.Graph()
		src := perm.Identity(g.K())
		want := core.OracleBFS(g, src, nil)
		for _, workers := range []int{1, 2, 3, 7, 60} {
			got, err := g.BFSParallel(src, workers)
			if err != nil {
				t.Fatalf("%s: BFS (workers=%d): %v", g.Name(), workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: BFS (workers=%d) differs from the oracle:\ngot:    ecc=%d reach=%d hist=%v mean=%v\noracle: ecc=%d reach=%d hist=%v mean=%v",
					g.Name(), workers,
					got.Eccentricity, got.Reachable, got.Histogram, got.Mean,
					want.Eccentricity, want.Reachable, want.Histogram, want.Mean)
			}
		}
		g.DropNeighborTable()
	}
}

// TestBFSWeightedMatchesDequeOracle holds the engine's 0/1 search to the
// deque oracle on every super Cayley instance with k <= 9 (k <= 7 under
// -short and -race) and on MS(3,3) and complete-RR(3,3) at k = 10, with
// nucleus links free and super links costing 1 (mcmp.InterclusterWeights):
// Graph.BFSWeighted on one and two workers, and IndexGraph.BFSWeighted
// over the same adjacency, must match it on reachable count, eccentricity,
// histogram, mean and the distance of every rank.
func TestBFSWeightedMatchesDequeOracle(t *testing.T) {
	maxK := 9
	if testing.Short() || core.RaceEnabled {
		maxK = 7
	}
	var nws []*topology.Network
	for _, nw := range equivalenceInstances(t, maxK) {
		if nw.InterclusterDegree() > 0 {
			nws = append(nws, nw)
		}
	}
	if maxK == 9 {
		for _, fam := range []topology.Family{topology.MS, topology.CompleteRR} {
			nw, err := topology.New(fam, 3, 3)
			if err != nil {
				t.Fatal(err)
			}
			nws = append(nws, nw)
		}
	}
	for _, nw := range nws {
		g := nw.Graph()
		weight := mcmp.InterclusterWeights(g.GeneratorSet())
		src := perm.Identity(g.K())
		tbl, err := g.EnsureNeighborTable(0)
		if err != nil {
			t.Fatal(err)
		}
		want := core.OracleWeighted(tbl, src.Rank(), weight)
		for _, workers := range []int{1, 2} {
			got, err := g.BFSWeightedWorkers(src, weight, workers)
			if err != nil {
				t.Fatalf("%s: BFSWeighted (workers=%d): %v", g.Name(), workers, err)
			}
			core.SameWeighted(t, fmt.Sprintf("%s workers=%d", g.Name(), workers), got, want)
		}
		ig := &core.IndexGraph{N: g.Order(), Out: func(u int64, visit func(int64)) {
			for j := 0; j < tbl.Degree(); j++ {
				visit(tbl.At(u, j))
			}
		}}
		got, err := ig.BFSWeighted(src.Rank(), weight)
		if err != nil {
			t.Fatalf("%s: IndexGraph.BFSWeighted: %v", g.Name(), err)
		}
		core.SameWeighted(t, g.Name()+" IndexGraph", got, want)
		g.DropNeighborTable()
	}
}

// cutOf returns fs as BFSWithout's cut masks over g's states.
func cutOf(g *core.Graph, fs fault.Set) [][]uint64 {
	n := g.Order()
	cut := make([][]uint64, g.OutDegree())
	for l := range fs {
		if cut[l.Gen] == nil {
			cut[l.Gen] = make([]uint64, (n+63)/64)
		}
		cut[l.Gen][l.Node>>6] |= 1 << (l.Node & 63)
	}
	return cut
}

// TestBFSWithoutMatchesOracle holds the masked search to the queue
// oracle, skipping the same links, on every instance with k <= 7 (k <= 6
// under -short and -race): random fault sets from one link to a quarter
// of them, mirrored on undirected graphs, from the first and last rank, on
// one and two workers. The results must be reflect.DeepEqual: reachable
// count, eccentricity, histogram, mean and every rank's distance. Cut
// masks of the wrong shape are refused.
func TestBFSWithoutMatchesOracle(t *testing.T) {
	maxK := 7
	if testing.Short() || core.RaceEnabled {
		maxK = 6
	}
	disconnected := 0
	for _, nw := range equivalenceInstances(t, maxK) {
		g := nw.Graph()
		n, deg := g.Order(), g.OutDegree()
		for i, count := range []int{1, 3, int(n) * deg / 20, int(n) * deg / 4} {
			fs := fault.RandomSet(n, deg, count, uint64(7+i))
			if g.Undirected() {
				var err error
				if fs, err = fault.MirrorUndirected(g, fs); err != nil {
					t.Fatal(err)
				}
			}
			cut := cutOf(g, fs)
			for _, r := range []int64{0, n - 1} {
				src := perm.Unrank(g.K(), r)
				want := core.OracleBFS(g, src, cut)
				if want.Reachable < n {
					disconnected++
				}
				for _, workers := range []int{1, 2} {
					got, err := g.BFSWithoutWorkers(src, cut, workers)
					if err != nil {
						t.Fatalf("%s: BFSWithout (workers=%d): %v", g.Name(), workers, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s, %d faults, source %d, workers=%d: BFSWithout differs from the oracle:\ngot:    reach=%d ecc=%d hist=%v mean=%v\noracle: reach=%d ecc=%d hist=%v mean=%v",
							g.Name(), len(fs), r, workers,
							got.Reachable, got.Eccentricity, got.Histogram, got.Mean,
							want.Reachable, want.Eccentricity, want.Histogram, want.Mean)
					}
				}
			}
		}
		src := perm.Identity(g.K())
		if _, err := g.BFSWithout(src, make([][]uint64, deg+1)); err == nil {
			t.Errorf("%s: %d cut masks for %d generators accepted", g.Name(), deg+1, deg)
		}
		short := make([][]uint64, deg)
		short[0] = make([]uint64, (n+63)/64+1)
		if _, err := g.BFSWithout(src, short); err == nil {
			t.Errorf("%s: a cut mask of the wrong length accepted", g.Name())
		}
		g.DropNeighborTable()
	}
	if disconnected == 0 {
		t.Error("no fault set disconnected a source: the unreachable states went untested")
	}
}

// TestEngineMatchesOracleK9Smoke runs one k = 9 instance (362,880 states)
// at one and four workers: large enough that BFS would fan out.
func TestEngineMatchesOracleK9Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("k=9 smoke skipped in -short mode")
	}
	nw, err := topology.NewStar(9)
	if err != nil {
		t.Fatal(err)
	}
	g := nw.Graph()
	src := perm.Identity(9)
	want := core.OracleBFS(g, src, nil)
	for _, workers := range []int{1, 4} {
		got, err := g.BFSParallel(src, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("star(9): BFS (workers=%d) differs from the oracle: ecc %d vs %d, reach %d vs %d",
				workers, got.Eccentricity, want.Eccentricity, got.Reachable, want.Reachable)
		}
	}
	g.DropNeighborTable()
}

// TestBFSDispatch pins the worker-count rule: BFS must agree with the
// oracle on both sides of parallelBFSThreshold.
func TestBFSDispatch(t *testing.T) {
	for _, k := range []int{5, 8} {
		nw, err := topology.NewStar(k)
		if err != nil {
			t.Fatal(err)
		}
		g := nw.Graph()
		got, err := g.BFS(perm.Identity(k))
		if err != nil {
			t.Fatal(err)
		}
		if want := core.OracleBFS(g, perm.Identity(k), nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("star(%d): BFS result differs from the oracle", k)
		}
	}
}

// TestExactProfileMatchesDiameterAndAverage checks the single-BFS profile
// against the two dedicated measurements it replaces.
func TestExactProfileMatchesDiameterAndAverage(t *testing.T) {
	nw, err := topology.NewMS(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := nw.Graph()
	prof, err := g.ExactProfile()
	if err != nil {
		t.Fatal(err)
	}
	d, err := g.Diameter()
	if err != nil {
		t.Fatal(err)
	}
	avg, err := g.AverageDistance()
	if err != nil {
		t.Fatal(err)
	}
	if prof.Eccentricity != d || prof.Mean != avg {
		t.Fatalf("ExactProfile = (diam %d, avg %v), want (%d, %v)", prof.Eccentricity, prof.Mean, d, avg)
	}
	if prof.Reachable != g.Order() {
		t.Fatalf("ExactProfile reachable = %d, want %d", prof.Reachable, g.Order())
	}
}

func BenchmarkBFSParallel(b *testing.B) {
	for _, k := range []int{8, 9} {
		b.Run(starName(k), func(b *testing.B) {
			g := starGraph(b, k)
			src := perm.Identity(k)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := g.BFSParallel(src, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			g.DropNeighborTable()
		})
	}
}

// BenchmarkBFSBitset measures the table-resident engine on one worker —
// the steady-state cost of one full-graph search once the factored
// neighbor table is built (the table build is benchmarked separately by
// benchreport's neighbor-table entry).
func BenchmarkBFSBitset(b *testing.B) {
	for _, k := range []int{8, 9} {
		b.Run(starName(k), func(b *testing.B) {
			g := starGraph(b, k)
			src := perm.Identity(k)
			if _, err := g.EnsureNeighborTable(0); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.BFSParallel(src, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			g.DropNeighborTable()
		})
	}
}

func starName(k int) string { return "star-" + string(rune('0'+k)) }

func starGraph(b *testing.B, k int) *core.Graph {
	b.Helper()
	nw, err := topology.NewStar(k)
	if err != nil {
		b.Fatal(err)
	}
	return nw.Graph()
}
