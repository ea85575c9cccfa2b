package mcmp

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/perm"
	"repro/internal/topology"
)

func build(t *testing.T, fam topology.Family, l, n int) *topology.Network {
	t.Helper()
	nw, err := topology.New(fam, l, n)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestInterclusterWeights(t *testing.T) {
	ms := build(t, topology.MS, 3, 2)
	w := InterclusterWeights(ms.Graph().GeneratorSet())
	ones := 0
	for _, v := range w {
		ones += v
	}
	if ones != 2 {
		t.Errorf("MS(3,2) has %d super weights, want 2", ones)
	}
}

func TestMeasureMS(t *testing.T) {
	ms := build(t, topology.MS, 3, 2)
	p, err := Measure(ms.Graph(), 8.0)
	if err != nil {
		t.Fatal(err)
	}
	// Cluster = orbit of {T2,T3} = permutations of the first 3 positions:
	// (n+1)! = 6 nodes.
	if p.ClusterSize != 6 {
		t.Errorf("cluster size %d, want 6", p.ClusterSize)
	}
	if p.InterclusterDegree != 2 {
		t.Errorf("intercluster degree %d, want 2", p.InterclusterDegree)
	}
	if p.LinkBandwidth != 4.0 {
		t.Errorf("link bandwidth %v, want 4", p.LinkBandwidth)
	}
	if p.InterclusterDiameter < 1 || p.AvgInterclusterDistance <= 0 {
		t.Errorf("degenerate intercluster metrics: %+v", p)
	}
	// The intercluster diameter cannot exceed the plain diameter.
	d, err := ms.Graph().Diameter()
	if err != nil {
		t.Fatal(err)
	}
	if p.InterclusterDiameter > d {
		t.Errorf("intercluster diameter %d > diameter %d", p.InterclusterDiameter, d)
	}
	// And must respect the packing lower bound of Theorem 4.8's statement.
	lb, err := metrics.InterclusterDL(float64(ms.Nodes()), float64(p.ClusterSize), p.InterclusterDegree)
	if err != nil {
		t.Fatal(err)
	}
	if float64(p.InterclusterDiameter) < lb {
		t.Errorf("intercluster diameter %d below lower bound %v", p.InterclusterDiameter, lb)
	}
}

// TestMeasureAcrossFamilies checks Theorem 4.8's quantities on every super
// Cayley instance with k <= 9 (k <= 7 under -short and -race): the cluster
// is the nucleus orbit, (n+1)! nodes; the intercluster degree is the
// network's; the intercluster diameter and average sit on or above the
// packing bounds; and avg <= D_inter <= the exact unit diameter.
func TestMeasureAcrossFamilies(t *testing.T) {
	maxK := 9
	if testing.Short() || raceEnabled {
		maxK = 7
	}
	const eps = 1e-9
	for _, fam := range topology.AllSuperCayleyFamilies() {
		for l := 2; l+1 <= maxK; l++ {
			for n := 1; l*n+1 <= maxK; n++ {
				nw, err := topology.New(fam, l, n)
				if err != nil {
					t.Fatal(err)
				}
				g := nw.Graph()
				p, err := Measure(g, 1.0)
				if err != nil {
					t.Fatalf("%s: %v", nw.Name(), err)
				}
				if want := perm.Factorial(n + 1); p.ClusterSize != want {
					t.Errorf("%s: cluster size %d, want (n+1)! = %d", nw.Name(), p.ClusterSize, want)
				}
				if p.InterclusterDegree != nw.InterclusterDegree() {
					t.Errorf("%s: profile degree %d vs network %d", nw.Name(), p.InterclusterDegree, nw.InterclusterDegree())
				}
				nodes, m := float64(nw.Nodes()), float64(p.ClusterSize)
				dl, err := metrics.InterclusterDL(nodes, m, p.InterclusterDegree)
				if err != nil {
					t.Fatal(err)
				}
				avgLB, err := metrics.InterclusterAvgLowerBound(nodes, m, p.InterclusterDegree)
				if err != nil {
					t.Fatal(err)
				}
				if float64(p.InterclusterDiameter) < dl-eps {
					t.Errorf("%s: intercluster diameter %d below the packing bound %v", nw.Name(), p.InterclusterDiameter, dl)
				}
				if p.AvgInterclusterDistance < avgLB-eps {
					t.Errorf("%s: average intercluster distance %v below the packing bound %v", nw.Name(), p.AvgInterclusterDistance, avgLB)
				}
				d, err := g.Diameter()
				if err != nil {
					t.Fatal(err)
				}
				if p.AvgInterclusterDistance > float64(p.InterclusterDiameter) || p.InterclusterDiameter > d {
					t.Errorf("%s: want avg %v <= D_inter %d <= diameter %d", nw.Name(), p.AvgInterclusterDistance, p.InterclusterDiameter, d)
				}
				g.DropNeighborTable()
			}
		}
	}
}

// TestMeasureFootprint holds a cold Measure of MS(2,4) (k = 9, 362,880
// states) to 2 MiB allocated in total, as TestExactProfileFootprint does a
// cold unit profile: one 0/1 search, byte-per-state distances and bitsets
// over the 236 KB of columns, and no second search for the cluster.
func TestMeasureFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("k=9 measurement skipped in -short mode")
	}
	nw := build(t, topology.MS, 2, 4)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p, err := Measure(nw.Graph(), 1.0)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 2 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("cold Measure of %s allocated %d bytes, limit %d", nw.Name(), got, limit)
	}
	if p.ClusterSize != 120 {
		t.Fatalf("%s: cluster size %d, want 5! = 120", nw.Name(), p.ClusterSize)
	}
}

func TestMeasureRejectsSingleChip(t *testing.T) {
	star := build(t, topology.Star, 1, 4)
	if _, err := Measure(star.Graph(), 1.0); err == nil {
		t.Error("star graph (no super generators) accepted")
	}
}

// TestTheorem49BisectionOrdering: the Theorem 4.9 lower bound on bisection
// bandwidth for a balanced super Cayley graph must exceed the hypercube's
// per-node-normalized bisection at comparable size, because the average
// intercluster distance is Θ(log N / log log N) « (log N)/2... the paper's
// §4.3 comparison. We check the concrete instances we can measure.
func TestTheorem49BisectionOrdering(t *testing.T) {
	ms := build(t, topology.MS, 3, 2) // N = 5040
	p, err := Measure(ms.Graph(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(ms.Nodes())
	bbMS, err := metrics.BisectionLowerBound(1.0, n, p.AvgInterclusterDistance)
	if err != nil {
		t.Fatal(err)
	}
	// Hypercube with ~the same number of nodes: N=8192, bisection N/2 links
	// of bandwidth w/d each (degree d = 13 pins split over d links).
	hyp, err := topology.NewHypercube(13)
	if err != nil {
		t.Fatal(err)
	}
	bbHyp := float64(hyp.BisectionLinks) * (1.0 / float64(hyp.Degree))
	// Normalize per node.
	if bbMS/n <= bbHyp/float64(hyp.Nodes) {
		t.Errorf("MS bisection LB per node %v not above hypercube %v",
			bbMS/n, bbHyp/float64(hyp.Nodes))
	}
	t.Logf("BB lower bound: MS(3,2)=%.1f (N=%d), hypercube(13)=%.1f (N=%d)",
		bbMS, ms.Nodes(), bbHyp, hyp.Nodes)
}

func TestLexBisectionCut(t *testing.T) {
	// Sanity on a tiny star graph: cut must be positive and at most all
	// directed links.
	star := build(t, topology.Star, 1, 3)
	cut, err := LexBisectionCut(star.Graph())
	if err != nil {
		t.Fatal(err)
	}
	total := star.Nodes() * int64(star.Degree())
	if cut <= 0 || cut > total {
		t.Errorf("lex cut %d outside (0, %d]", cut, total)
	}
	// The empirical cut is an upper bound on the minimum bisection; it must
	// not be smaller than a crude flow bound N/2 / diameter... skip: just
	// check symmetric counting parity for an undirected graph (each
	// undirected edge crossing counts twice).
	if cut%2 != 0 {
		t.Errorf("undirected graph lex cut %d should be even", cut)
	}
}

func TestPrefixBisectionCut(t *testing.T) {
	// k even: valid bisection.
	ms, err := topology.NewMS(3, 1) // k = 4
	if err != nil {
		t.Fatal(err)
	}
	cut, err := PrefixBisectionCut(ms.Graph())
	if err != nil {
		t.Fatal(err)
	}
	if cut <= 0 {
		t.Errorf("prefix cut = %d", cut)
	}
	// k odd: must refuse.
	ms7 := build(t, topology.MS, 3, 2)
	if _, err := PrefixBisectionCut(ms7.Graph()); err == nil {
		t.Error("odd-k prefix bisection accepted")
	}
}

func TestClusterSizeViaNucleusOrbit(t *testing.T) {
	// IS-nucleus families: insertions+selections over n+1 = 3 symbols give
	// the full S_3 orbit, 6 nodes.
	ris := build(t, topology.RIS, 3, 2)
	p, err := Measure(ris.Graph(), 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if p.ClusterSize != 6 {
		t.Errorf("RIS(3,2) cluster %d, want 6", p.ClusterSize)
	}
	// Direct core-level check on a hand-built MS(2,2) set.
	set := gen.MustSet(5, gen.NewTransposition(2), gen.NewTransposition(3), gen.NewSwap(2, 2))
	g := core.NewGraph("tiny", set)
	if _, err := Measure(g, 1.0); err != nil {
		t.Fatalf("tiny: %v", err)
	}
	res, err := g.BFSWeighted(perm.Identity(5), InterclusterWeights(set))
	if err != nil {
		t.Fatal(err)
	}
	if res.Histogram[0] != 6 {
		t.Errorf("distance-0 class %d, want 6 (orbit of {T2,T3})", res.Histogram[0])
	}
}

// LexBisectionCut counts the links crossing the lexicographic-half
// bisection (nodes with rank < N/2 versus the rest). Each direction of a
// directed link counts once; for undirected graphs the count is the number
// of directed crossings, i.e. twice the undirected cut. The result is an
// upper bound on the minimum bisection cut.
func LexBisectionCut(g *core.Graph) (int64, error) {
	k := g.K()
	if k > core.MaxExplicitK-1 {
		return 0, fmt.Errorf("mcmp: LexBisectionCut: k=%d too large", k)
	}
	tbl, err := g.EnsureNeighborTable(0)
	if err != nil {
		return 0, err
	}
	n := g.Order()
	half := n / 2
	var cut int64
	for r := int64(0); r < n; r++ {
		inA := r < half
		for j := 0; j < tbl.Degree(); j++ {
			if (tbl.At(r, j) < half) != inA {
				cut++
			}
		}
	}
	return cut, nil
}

// PrefixBisectionCut counts links crossing the bisection that splits nodes
// by whether symbol 1 sits in the left or right half of the label — a
// partition aligned with the super-symbol structure, usually much tighter
// than the lexicographic cut for super Cayley graphs.
func PrefixBisectionCut(g *core.Graph) (int64, error) {
	k := g.K()
	if k > core.MaxExplicitK-1 {
		return 0, fmt.Errorf("mcmp: PrefixBisectionCut: k=%d too large", k)
	}
	n := g.Order()
	mid := k / 2
	var cut int64
	var sideA int64
	cur := make(perm.Perm, k)
	next := make(perm.Perm, k)
	scratch := make([]int, k)
	perms := g.GeneratorSet().Perms()
	side := func(p perm.Perm) bool { return p.PositionOf(1) <= mid }
	for r := int64(0); r < n; r++ {
		perm.UnrankInto(k, r, cur, scratch)
		inA := side(cur)
		if inA {
			sideA++
		}
		for _, gp := range perms {
			cur.ComposeInto(gp, next)
			if side(next) != inA {
				cut++
			}
		}
	}
	// This partition is only a genuine bisection when k is even (sides
	// mid·(k-1)! vs (k-mid)·(k-1)!); report an error otherwise.
	if sideA*2 != n {
		return 0, fmt.Errorf("mcmp: PrefixBisectionCut: partition %d/%d is not a bisection (k odd)", sideA, n-sideA)
	}
	return cut, nil
}
