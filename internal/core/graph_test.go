package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/perm"
)

func starGraph(k int) *Graph {
	gs := make([]gen.Generator, 0, k-1)
	for i := 2; i <= k; i++ {
		gs = append(gs, gen.NewTransposition(i))
	}
	return NewGraph("star", gen.MustSet(k, gs...))
}

func rotatorGraph(k int) *Graph {
	gs := make([]gen.Generator, 0, k-1)
	for i := 2; i <= k; i++ {
		gs = append(gs, gen.NewInsertion(i))
	}
	return NewGraph("rotator", gen.MustSet(k, gs...))
}

func TestGraphBasics(t *testing.T) {
	g := starGraph(4)
	if g.K() != 4 || g.Order() != 24 || g.Degree() != 3 || g.OutDegree() != 3 {
		t.Fatalf("basics: k=%d N=%d d=%d", g.K(), g.Order(), g.Degree())
	}
	if !g.Undirected() {
		t.Error("star graph should be undirected")
	}
	if g.InterclusterDegree() != 0 {
		t.Error("star graph has no super generators")
	}
	if !g.Connected() {
		t.Error("star graph should be connected")
	}
	if g.String() == "" || g.Name() != "star" {
		t.Error("naming")
	}
	if rot := rotatorGraph(4); rot.Undirected() {
		t.Error("rotator graph should be directed")
	}
}

func TestNeighbors(t *testing.T) {
	g := starGraph(4)
	id := perm.Identity(4)
	nbrs := g.Neighbors(id)
	if len(nbrs) != 3 {
		t.Fatalf("neighbor count %d", len(nbrs))
	}
	want := map[string]bool{"2134": true, "3214": true, "4231": true}
	for _, nb := range nbrs {
		if !want[nb.String()] {
			t.Errorf("unexpected neighbor %v", nb)
		}
	}
	// NeighborInto agrees with Neighbors, generator by generator.
	buf := make(perm.Perm, 4)
	for i, nb := range nbrs {
		g.NeighborInto(id, i, buf)
		if !buf.Equal(nb) {
			t.Errorf("NeighborInto(%d) = %v, Neighbors says %v", i, buf, nb)
		}
	}
}

// Known exact values: the k-star has diameter ⌊3(k-1)/2⌋.
func TestStarDiameterExact(t *testing.T) {
	want := map[int]int{2: 1, 3: 3, 4: 4, 5: 6, 6: 7, 7: 9}
	for k, d := range want {
		got, err := starGraph(k).Diameter()
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got != d {
			t.Errorf("star %d diameter = %d, want %d", k, got, d)
		}
	}
}

// Known exact values: the k-rotator has diameter k-1 (Corbett 1992).
func TestRotatorDiameterExact(t *testing.T) {
	for k := 2; k <= 7; k++ {
		got, err := rotatorGraph(k).Diameter()
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got != k-1 {
			t.Errorf("rotator %d diameter = %d, want %d", k, got, k-1)
		}
	}
}

func TestBFSHistogramInvariants(t *testing.T) {
	g := starGraph(5)
	res, err := g.BFS(perm.Identity(5))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range res.Histogram {
		total += c
	}
	if total != g.Order() || res.Reachable != g.Order() {
		t.Fatalf("histogram covers %d of %d nodes", total, g.Order())
	}
	if res.Histogram[0] != 1 {
		t.Error("exactly one node at distance 0")
	}
	if res.Histogram[1] != int64(g.Degree()) {
		t.Errorf("%d nodes at distance 1, want degree %d", res.Histogram[1], g.Degree())
	}
	if res.Mean <= 0 || res.Mean > float64(res.Eccentricity) {
		t.Errorf("mean %f outside (0, %d]", res.Mean, res.Eccentricity)
	}
}

// Vertex-transitivity: the BFS profile from random sources matches the
// profile from the identity.
func TestVertexTransitivityProfiles(t *testing.T) {
	g := starGraph(5)
	base, err := g.BFS(perm.Identity(5))
	if err != nil {
		t.Fatal(err)
	}
	rng := perm.NewRNG(21)
	for trial := 0; trial < 5; trial++ {
		src := perm.Random(5, rng)
		res, err := g.BFS(src)
		if err != nil {
			t.Fatal(err)
		}
		if res.Eccentricity != base.Eccentricity || res.Mean != base.Mean {
			t.Fatalf("profile from %v differs: ecc %d vs %d", src, res.Eccentricity, base.Eccentricity)
		}
		for d := range base.Histogram {
			if res.Histogram[d] != base.Histogram[d] {
				t.Fatalf("histogram differs at distance %d", d)
			}
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	// A single transposition generates a 2-cycle subgroup: only 2 of 24
	// states reachable.
	g := NewGraph("t2-only", gen.MustSet(4, gen.NewTransposition(2)))
	res, err := g.BFS(perm.Identity(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reachable != 2 {
		t.Fatalf("reachable = %d, want 2", res.Reachable)
	}
	if _, err := g.Diameter(); err == nil {
		t.Error("Diameter on disconnected graph should error")
	}
	if _, err := g.AverageDistance(); err == nil {
		t.Error("AverageDistance on disconnected graph should error")
	}
}

// TestConnectedIsExact: a lone k-cycle moves every position to every
// other, so it passes gen.Set.Generates's transitivity check, yet it
// generates only Z_k; Connected reads the search and says no. Star and
// rotator graphs generate S_k, and the fallback beyond MaxExplicitK
// answers by transitivity.
func TestConnectedIsExact(t *testing.T) {
	for k := 3; k <= 8; k++ {
		cycle := NewGraph("cycle", gen.MustSet(k, gen.NewInsertion(k)))
		if !cycle.GeneratorSet().Generates() {
			t.Errorf("k=%d: a k-cycle is not transitive on positions", k)
		}
		if cycle.Connected() {
			t.Errorf("k=%d: a lone k-cycle reported connected", k)
		}
		if !starGraph(k).Connected() || !rotatorGraph(k).Connected() {
			t.Errorf("k=%d: star or rotator graph reported disconnected", k)
		}
	}
	if !starGraph(MaxExplicitK + 1).Connected() {
		t.Error("star graph beyond MaxExplicitK reported disconnected")
	}
}

func TestBFSWeightedZeroOne(t *testing.T) {
	// MS(2,2): nucleus T2,T3 weight 0, super S2 weight 1. The intercluster
	// distance profile must have eccentricity << unit-weight diameter.
	set := gen.MustSet(5,
		gen.NewTransposition(2), gen.NewTransposition(3), gen.NewSwap(2, 2))
	g := NewGraph("MS(2,2)", set)
	weights := []int{0, 0, 1}
	res, err := g.BFSWeighted(perm.Identity(5), weights)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reachable != g.Order() {
		t.Fatalf("weighted BFS reached %d of %d", res.Reachable, g.Order())
	}
	unit, err := g.BFS(perm.Identity(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Eccentricity >= unit.Eccentricity {
		t.Errorf("intercluster ecc %d should be < unit ecc %d", res.Eccentricity, unit.Eccentricity)
	}
	if res.Eccentricity < 1 {
		t.Error("intercluster eccentricity should be >= 1")
	}
	// All-zero weights: everything reachable at distance 0 through the
	// nucleus alone? No — nucleus alone does not generate S_k, so with
	// super weight also 0 every reachable node sits at distance 0.
	zero, err := g.BFSWeighted(perm.Identity(5), []int{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if zero.Eccentricity != 0 {
		t.Errorf("all-zero weights give ecc %d", zero.Eccentricity)
	}
	if _, err := g.BFSWeighted(perm.Identity(5), []int{0, 1}); err == nil {
		t.Error("wrong weight count accepted")
	}
	if _, err := g.BFSWeighted(perm.Identity(5), []int{0, 0, 2}); err == nil {
		t.Error("weight 2 accepted")
	}
}

// TestBFSWeightedMeanCountsClusterMates: on MS(2,2) with free nucleus
// links the source's cluster-mates sit at distance 0, and Mean averages
// over them too — every reachable node but the source, as a sum over
// Dist gives it. IndexGraph.BFSWeighted over the same adjacency runs the
// same search and returns the same profile.
func TestBFSWeightedMeanCountsClusterMates(t *testing.T) {
	set := gen.MustSet(5,
		gen.NewTransposition(2), gen.NewTransposition(3), gen.NewSwap(2, 2))
	g := NewGraph("MS(2,2)", set)
	weights := []int{0, 0, 1}
	res, err := g.BFSWeighted(perm.Identity(5), weights)
	if err != nil {
		t.Fatal(err)
	}
	if res.Histogram[0] != 6 {
		t.Fatalf("cluster of the identity has %d nodes, want 3! = 6", res.Histogram[0])
	}
	var sum int64
	for r := int64(0); r < g.Order(); r++ {
		sum += int64(max(res.Dist.At(r), 0))
	}
	if want := float64(sum) / float64(res.Reachable-1); res.Mean != want {
		t.Errorf("Mean = %v, sum over Dist / (reachable-1) = %v", res.Mean, want)
	}
	ig := &IndexGraph{N: g.Order(), Out: func(u int64, visit func(int64)) {
		for _, nb := range g.Neighbors(perm.Unrank(5, u)) {
			visit(nb.Rank())
		}
	}}
	ires, err := ig.BFSWeighted(res.Source, weights)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ires, res) {
		t.Errorf("IndexGraph.BFSWeighted = %+v, Graph.BFSWeighted = %+v", ires, res)
	}
	if _, err := ig.BFSWeighted(g.Order(), weights); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := ig.BFSWeighted(0, []int{0, 1}); err == nil {
		t.Error("wrong weight count accepted")
	}
}

func TestWeightedMatchesUnitWhenAllOnes(t *testing.T) {
	g := starGraph(5)
	ones := make([]int, g.Degree())
	for i := range ones {
		ones[i] = 1
	}
	wres, err := g.BFSWeighted(perm.Identity(5), ones)
	if err != nil {
		t.Fatal(err)
	}
	ures, err := g.BFS(perm.Identity(5))
	if err != nil {
		t.Fatal(err)
	}
	if wres.Eccentricity != ures.Eccentricity || wres.Mean != ures.Mean {
		t.Fatalf("weighted(1) ecc %d mean %f vs unit ecc %d mean %f",
			wres.Eccentricity, wres.Mean, ures.Eccentricity, ures.Mean)
	}
}

func TestBFSSizeGuard(t *testing.T) {
	g := starGraph(11)
	if _, err := g.BFS(perm.Identity(11)); err == nil {
		t.Error("BFS at k=11 should refuse")
	}
}

func TestIndexGraphRing(t *testing.T) {
	// 8-node directed ring: diameter 7; undirected ring: diameter 4.
	dirRing := &IndexGraph{N: 8, Out: func(u int64, visit func(int64)) {
		visit((u + 1) % 8)
	}}
	d, err := dirRing.DiameterExact()
	if err != nil {
		t.Fatal(err)
	}
	if d != 7 {
		t.Errorf("directed ring diameter = %d", d)
	}
	ring := &IndexGraph{N: 8, Out: func(u int64, visit func(int64)) {
		visit((u + 1) % 8)
		visit((u + 7) % 8)
	}}
	d, err = ring.DiameterExact()
	if err != nil {
		t.Fatal(err)
	}
	if d != 4 {
		t.Errorf("undirected ring diameter = %d", d)
	}
	dap, err := ring.DiameterAllPairs()
	if err != nil {
		t.Fatal(err)
	}
	if dap != 4 {
		t.Errorf("all-pairs ring diameter = %d", dap)
	}
}

// TestIndexGraphUnevenDegree searches a 5-node path, whose end rows are
// padded with self-loops: the padding must add no edge.
func TestIndexGraphUnevenDegree(t *testing.T) {
	path := &IndexGraph{N: 5, Out: func(u int64, visit func(int64)) {
		if u > 0 {
			visit(u - 1)
		}
		if u < 4 {
			visit(u + 1)
		}
	}}
	res, err := path.BFS(4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Histogram, []int64{1, 1, 1, 1, 1}) {
		t.Fatalf("path BFS from its end: histogram %v, want one node per distance 0..4", res.Histogram)
	}
	if d, err := path.DiameterAllPairs(); err != nil || d != 4 {
		t.Fatalf("path all-pairs diameter = %d, %v; want 4", d, err)
	}
}

func TestIndexGraphErrors(t *testing.T) {
	ig := &IndexGraph{N: 4, Out: func(u int64, visit func(int64)) {}}
	if _, err := ig.BFS(-1); err == nil {
		t.Error("negative source accepted")
	}
	if _, err := ig.BFS(4); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := ig.DiameterExact(); err == nil {
		t.Error("disconnected DiameterExact should error")
	}
	if _, err := ig.DiameterAllPairs(); err == nil {
		t.Error("disconnected DiameterAllPairs should error")
	}
	// An out-of-range neighbor is an error, not a panic.
	bad := &IndexGraph{N: 4, Out: func(u int64, visit func(int64)) { visit(u + 1) }}
	if _, err := bad.BFS(0); err == nil {
		t.Error("out-of-range neighbor accepted by BFS")
	}
	if _, err := bad.DiameterAllPairs(); err == nil {
		t.Error("out-of-range neighbor accepted by DiameterAllPairs")
	}
}

func TestIntDeque(t *testing.T) {
	d := newIntDeque(2)
	d.pushBack(1)
	d.pushBack(2)
	d.pushFront(0)
	d.pushBack(3) // forces growth
	got := []int64{}
	for d.len() > 0 {
		got = append(got, d.popFront())
	}
	want := []int64{0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("deque order %v", got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("popFront on empty deque should panic")
		}
	}()
	d.popFront()
}

func BenchmarkBFSStar7(b *testing.B) {
	g := starGraph(7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.BFS(perm.Identity(7)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBFSWeightedMS32(b *testing.B) {
	set := gen.MustSet(7,
		gen.NewTransposition(2), gen.NewTransposition(3),
		gen.NewSwap(2, 2), gen.NewSwap(3, 2))
	g := NewGraph("MS(3,2)", set)
	w := []int{0, 0, 1, 1}
	for i := 0; i < b.N; i++ {
		if _, err := g.BFSWeighted(perm.Identity(7), w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShortestPath(b *testing.B) {
	g := starGraph(7)
	rng := perm.NewRNG(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, dst := perm.Random(7, rng), perm.Random(7, rng)
		if _, err := g.ShortestPath(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// DiameterAllPairs computes the exact diameter by BFS from every node,
// building the neighbor table once. It is O(N·(N+E)) and intended only for
// small baseline instances.
func (ig *IndexGraph) DiameterAllPairs() (int, error) {
	tbl, err := ig.neighborTable()
	if err != nil {
		return 0, err
	}
	maxEcc := 0
	for src := int64(0); src < ig.N; src++ {
		res := bitsetSearch(tbl, src, 1, nil, nil)
		if res.Reachable != ig.N {
			return 0, fmt.Errorf("core: DiameterAllPairs: node %d reaches only %d/%d", src, res.Reachable, ig.N)
		}
		maxEcc = max(maxEcc, res.Eccentricity)
	}
	return maxEcc, nil
}
