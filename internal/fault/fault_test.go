package fault

import (
	"fmt"
	"maps"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/sim"
	"repro/internal/topology"
)

func net(t *testing.T, fam topology.Family, l, n int) *topology.Network {
	t.Helper()
	nw, err := topology.New(fam, l, n)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestBFSNoFaultsMatchesCore(t *testing.T) {
	nw := net(t, topology.MS, 2, 2)
	prof, err := BFS(nw.Graph(), nil, perm.Identity(5))
	if err != nil {
		t.Fatal(err)
	}
	base, err := nw.Graph().BFS(perm.Identity(5))
	if err != nil {
		t.Fatal(err)
	}
	if !prof.Connected || prof.Eccentricity != base.Eccentricity || prof.Mean != base.Mean {
		t.Fatalf("fault-free profile %+v differs from core BFS (ecc %d mean %f)",
			prof, base.Eccentricity, base.Mean)
	}
}

// TestSingleLinkFailureKeepsConnected: every single directed-link failure
// (mirrored) leaves MS(2,2) connected — 2-edge-connectivity of a degree-3
// vertex-symmetric graph.
func TestSingleLinkFailureKeepsConnected(t *testing.T) {
	nw := net(t, topology.MS, 2, 2)
	g := nw.Graph()
	deg := g.GeneratorSet().Len()
	// Sample every generator on a spread of nodes (full enumeration is
	// 120×3 BFS runs — fine).
	for node := int64(0); node < g.Order(); node += 5 {
		for gi := 0; gi < deg; gi++ {
			fs, err := MirrorUndirected(g, NewSet(Link{Node: node, Gen: gi}))
			if err != nil {
				t.Fatal(err)
			}
			prof, err := BFS(g, fs, perm.Identity(5))
			if err != nil {
				t.Fatal(err)
			}
			if !prof.Connected {
				t.Fatalf("single failure (%d,%d) disconnected MS(2,2)", node, gi)
			}
		}
	}
}

// TestFaultDisconnectsWhenIsolatingANode: failing all links of one node
// disconnects it.
func TestFaultDisconnectsWhenIsolatingANode(t *testing.T) {
	nw := net(t, topology.MS, 2, 2)
	g := nw.Graph()
	victim := int64(17)
	var links []Link
	for gi := 0; gi < g.GeneratorSet().Len(); gi++ {
		links = append(links, Link{Node: victim, Gen: gi})
	}
	fs, err := MirrorUndirected(g, NewSet(links...))
	if err != nil {
		t.Fatal(err)
	}
	prof, err := BFS(g, fs, perm.Identity(5))
	if err != nil {
		t.Fatal(err)
	}
	if prof.Connected {
		t.Fatal("isolating a node did not disconnect the graph")
	}
	if prof.Reachable != g.Order()-1 {
		t.Fatalf("reachable %d, want %d", prof.Reachable, g.Order()-1)
	}
}

func TestRandomSetDeterministic(t *testing.T) {
	a := RandomSet(100, 4, 10, 3)
	b := RandomSet(100, 4, 10, 3)
	if len(a) != 10 || len(b) != 10 {
		t.Fatal("size")
	}
	for l := range a {
		if !b[l] {
			t.Fatal("not deterministic")
		}
	}
}

func TestRandomTrials(t *testing.T) {
	nw := net(t, topology.MS, 2, 2)
	tr, err := RandomTrials(nw.Graph(), 3, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Runs != 20 || tr.Faults != 3 {
		t.Fatalf("trial bookkeeping: %+v", tr)
	}
	// With only 3 failed wires out of 360, the 120-node degree-3 graph stays
	// connected almost always.
	if tr.ConnectedRuns < 15 {
		t.Errorf("only %d/20 runs connected under 3 faults", tr.ConnectedRuns)
	}
	if tr.ConnectedRuns > 0 && tr.MeanDistInflation < 1.0 {
		t.Errorf("mean distance inflation %f < 1", tr.MeanDistInflation)
	}
	t.Logf("MS(2,2) with 3 random faults: %d/%d connected, worst ecc +%d, mean inflation %.4f",
		tr.ConnectedRuns, tr.Runs, tr.WorstEccDelta, tr.MeanDistInflation)
}

// TestRandomTrialsFaultRange: a fault count beyond the graph's N·deg
// directed links (72 on star(4)) or below zero is an error at once, and
// failing every link still runs and reports a disconnected graph.
func TestRandomTrialsFaultRange(t *testing.T) {
	g := net(t, topology.Star, 1, 3).Graph()
	for _, faults := range []int{-1, 73} {
		if tr, err := RandomTrials(g, faults, 1, 1); err == nil {
			t.Errorf("%d faults accepted: %+v", faults, tr)
		}
	}
	tr, err := RandomTrials(g, 72, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Faults != 72 || tr.ConnectedRuns != 0 {
		t.Errorf("72 of 72 links failed: %+v, want no connected run", tr)
	}
	defer func() {
		if recover() == nil {
			t.Error("RandomSet(24, 3, 73, 1) did not panic")
		}
	}()
	RandomSet(24, 3, 73, 1)
}

// TestResilienceComparison: at equal fault counts, the richer complete-RS
// stays at least as connected as the sparser RR (directed single rotation),
// matching the intuition that extra rotation generators add redundancy.
func TestResilienceComparison(t *testing.T) {
	crs := net(t, topology.CompleteRS, 3, 1) // degree 4, N = 24
	rr := net(t, topology.RR, 3, 1)          // degree 2, N = 24
	const faults, runs = 2, 30
	a, err := RandomTrials(crs.Graph(), faults, runs, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomTrials(rr.Graph(), faults, runs, 11)
	if err != nil {
		t.Fatal(err)
	}
	if a.ConnectedRuns < b.ConnectedRuns {
		t.Errorf("complete-RS (%d/%d) less resilient than RR (%d/%d)",
			a.ConnectedRuns, runs, b.ConnectedRuns, runs)
	}
	t.Logf("connected under %d faults: complete-RS %d/%d, RR %d/%d",
		faults, a.ConnectedRuns, runs, b.ConnectedRuns, runs)
}

func TestMirrorUndirectedRejectsDirected(t *testing.T) {
	rr := net(t, topology.RR, 3, 2)
	// RR's insertion generators lack inverses in the set.
	if _, err := MirrorUndirected(rr.Graph(), NewSet(Link{Node: 0, Gen: 0})); err == nil {
		t.Error("directed graph accepted by MirrorUndirected")
	}
}

// TestMirrorUndirectedMirrorsOnlyFailedLinks: a link marked up (false)
// is not a cut wire. A set of up-links mirrors to a set that BFS treats
// as fault-free, even from the link's own node; a mixed set mirrors its
// failed links and keeps its up-link as it is.
func TestMirrorUndirectedMirrorsOnlyFailedLinks(t *testing.T) {
	g := net(t, topology.MS, 2, 2).Graph()
	up, down := Link{Node: 3, Gen: 0}, Link{Node: 40, Gen: 1}
	src := perm.Unrank(g.K(), up.Node)
	free, err := BFS(g, nil, src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MirrorUndirected(g, Set{up: false})
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 1 || m[up] {
		t.Fatalf("Set{%v: false} mirrors to %v, want it unchanged", up, m)
	}
	if got, err := BFS(g, m, src); err != nil || *got != *free {
		t.Fatalf("mirrored up-links give %+v (err %v), want the fault-free %+v", got, err, free)
	}

	wire, err := MirrorUndirected(g, NewSet(down))
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := MirrorUndirected(g, Set{up: false, down: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wire[up]; ok {
		t.Fatalf("test links are one wire: %v", wire)
	}
	wire[up] = false
	if !maps.Equal(mixed, wire) {
		t.Fatalf("mixed set mirrors to %v, want %v", mixed, wire)
	}
}

func TestBFSSizeGuard(t *testing.T) {
	nw, err := topology.NewStar(11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BFS(nw.Graph(), nil, perm.Identity(11)); err == nil {
		t.Error("k=11 accepted")
	}
}

func TestRoutedTopologyUnderFaults(t *testing.T) {
	nw := net(t, topology.MS, 2, 2)
	g := nw.Graph()
	fs, err := MirrorUndirected(g, RandomSet(g.Order(), g.GeneratorSet().Len(), 4, 9))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRoutedTopology(g, fs)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Name() == "" || rt.NumNodes() != g.Order() || rt.Degree() != g.GeneratorSet().Len() {
		t.Fatal("shape")
	}
	// Paths avoid failed links and end at the destination.
	for src := int64(0); src < rt.NumNodes(); src += 17 {
		for dst := int64(3); dst < rt.NumNodes(); dst += 23 {
			path, err := rt.Path(src, dst)
			if err != nil {
				t.Fatalf("%d->%d: %v", src, dst, err)
			}
			cur := src
			for _, link := range path {
				if fs[Link{Node: cur, Gen: link}] {
					t.Fatalf("path %d->%d uses failed link (%d,%d)", src, dst, cur, link)
				}
				cur = rt.Neighbor(cur, link)
			}
			if cur != dst {
				t.Fatalf("path %d->%d ends at %d", src, dst, cur)
			}
		}
	}
	// End-to-end simulation over the faulted network completes.
	pkts := sim.PermutationRouting(rt.NumNodes(), 3)
	res, err := sim.RunUnicast(rt, pkts, sim.AllPort, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != int64(len(pkts)) {
		t.Fatalf("delivered %d of %d under faults", res.Delivered, len(pkts))
	}
	t.Logf("faulted MS(2,2): permutation routing completed in %d steps", res.Steps)
}

func TestRoutedTopologyUnreachable(t *testing.T) {
	nw := net(t, topology.MS, 2, 2)
	g := nw.Graph()
	// Isolate node 17.
	var links []Link
	for gi := 0; gi < g.GeneratorSet().Len(); gi++ {
		links = append(links, Link{Node: 17, Gen: gi})
	}
	fs, err := MirrorUndirected(g, NewSet(links...))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRoutedTopology(g, fs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Path(0, 17); err == nil {
		t.Error("path to isolated node accepted")
	}
	if p, err := rt.Path(5, 5); err != nil || len(p) != 0 {
		t.Error("self path")
	}
}

// composeBFS is the test's oracle: a queue BFS from src over g minus the
// failed links, stepping by compose + rank. It returns each node's
// distance, -1 when unreachable.
func composeBFS(g *core.Graph, faults Set, src int64) []int32 {
	dist := make([]int32, g.Order())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	gps := g.GeneratorSet().Perms()
	for queue := []int64{src}; len(queue) > 0; queue = queue[1:] {
		r := queue[0]
		u := perm.Unrank(g.K(), r)
		for j, gp := range gps {
			if faults[Link{Node: r, Gen: j}] {
				continue
			}
			if nr := u.Compose(gp).Rank(); dist[nr] < 0 {
				dist[nr] = dist[r] + 1
				queue = append(queue, nr)
			}
		}
	}
	return dist
}

// faultedInstances returns every super Cayley instance with k <= maxK and
// star(6), IS(5) and pancake(6).
func faultedInstances(t *testing.T, maxK int) []*topology.Network {
	nws := []*topology.Network{
		net(t, topology.Star, 1, 5), net(t, topology.IS, 1, 4), net(t, topology.Pancake, 1, 5),
	}
	for _, fam := range topology.AllSuperCayleyFamilies() {
		for l := 2; l+1 <= maxK; l++ {
			for n := 1; l*n+1 <= maxK; n++ {
				nws = append(nws, net(t, fam, l, n))
			}
		}
	}
	return nws
}

// TestRoutedTopologyCacheBounded: 1,000 distinct sources on MS(2,4)
// would cache 363 MB of distance tables (362,880 B each); the live heap
// must stay under distCacheBytes plus a fixed slack. Under -short and
// -race, 150 sources (54 MB unbounded) still overrun the budget.
func TestRoutedTopologyCacheBounded(t *testing.T) {
	const slack = 8 << 20
	sources := 1000
	if testing.Short() || raceEnabled {
		sources = 150
	}
	g := net(t, topology.MS, 2, 4).Graph()
	fs, err := MirrorUndirected(g, NewSet(Link{Node: 0, Gen: 0}, Link{Node: 1, Gen: 1}))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rt, err := NewRoutedTopology(g, fs)
	if err != nil {
		t.Fatal(err)
	}
	n := g.Order()
	for i := 0; i < sources; i++ {
		src := int64(i) * (n / int64(sources))
		if _, err := rt.Path(src, (src+1)%n); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d sources: live heap +%.1f MiB, %d tables cached", sources, float64(live)/(1<<20), len(rt.dist))
	if live > distCacheBytes+slack {
		t.Fatalf("%d sources hold %d live bytes, budget %d + slack %d", sources, live, distCacheBytes, slack)
	}
	runtime.KeepAlive(rt)
}

// TestFaultedSearchesMatchComposeBFS holds BFS's profile and
// RoutedTopology's paths to composeBFS over random fault sets, from light
// to disconnecting (mirrored on undirected graphs), on every super Cayley
// instance with k <= 7 (k <= 6 under -short and -race) and three nucleus
// families, from three sources: every path has the oracle's length, uses
// no failed link and ends at its destination, and every unreachable
// destination is an error.
func TestFaultedSearchesMatchComposeBFS(t *testing.T) {
	maxK := 7
	if testing.Short() || raceEnabled {
		maxK = 6
	}
	disconnected := 0
	for _, nw := range faultedInstances(t, maxK) {
		g := nw.Graph()
		n, deg := g.Order(), g.GeneratorSet().Len()
		for i, count := range []int{0, 3, int(n) * deg / 20, int(n) * deg / 4} {
			fs := RandomSet(n, deg, count, uint64(100+i))
			if g.Undirected() {
				var err error
				if fs, err = MirrorUndirected(g, fs); err != nil {
					t.Fatal(err)
				}
			}
			rt, err := NewRoutedTopology(g, fs)
			if err != nil {
				t.Fatal(err)
			}
			for _, src := range []int64{0, n / 3, n - 1} {
				dist := composeBFS(g, fs, src)
				var reachable, sum int64
				ecc := int32(0)
				for dst, d := range dist {
					if d < 0 {
						if _, err := rt.Path(src, int64(dst)); err == nil {
							t.Fatalf("%s, %d faults: path %d->%d to an unreachable node", g.Name(), count, src, dst)
						}
						continue
					}
					reachable++
					sum += int64(d)
					ecc = max(ecc, d)
					path, err := rt.Path(src, int64(dst))
					if err != nil {
						t.Fatalf("%s, %d faults: %d->%d: %v", g.Name(), count, src, dst, err)
					}
					if len(path) != int(d) {
						t.Fatalf("%s, %d faults: path %d->%d has %d hops, distance %d", g.Name(), count, src, dst, len(path), d)
					}
					cur := src
					for _, link := range path {
						if fs[Link{Node: cur, Gen: link}] {
							t.Fatalf("%s: path %d->%d uses failed link (%d,%d)", g.Name(), src, dst, cur, link)
						}
						cur = rt.Neighbor(cur, link)
					}
					if cur != int64(dst) {
						t.Fatalf("%s: path %d->%d ends at %d", g.Name(), src, dst, cur)
					}
				}
				if reachable < n {
					disconnected++
				}
				want := Profile{Reachable: reachable, Connected: reachable == n, Eccentricity: int(ecc)}
				if reachable > 1 {
					want.Mean = float64(sum) / float64(reachable-1)
				}
				prof, err := BFS(g, fs, perm.Unrank(g.K(), src))
				if err != nil {
					t.Fatal(err)
				}
				if *prof != want {
					t.Fatalf("%s, %d faults, source %d: BFS = %+v, composeBFS gives %+v", g.Name(), count, src, *prof, want)
				}
			}
		}
	}
	if disconnected == 0 {
		t.Error("no fault set disconnected a source: the unreachable paths went untested")
	}
}

// TestLinksOutsideTheGraphAreErrors: a failed link whose node lies
// outside 0..N-1 or whose generator lies outside 0..deg-1 cannot be cut,
// so BFS, NewRoutedTopology and MirrorUndirected refuse it and name the
// least such link, in (Node, Gen) order, of the set.
func TestLinksOutsideTheGraphAreErrors(t *testing.T) {
	g := net(t, topology.MS, 2, 2).Graph() // 120 nodes, 3 generators
	for _, bad := range []Link{{Node: -1, Gen: 0}, {Node: 120, Gen: 0}, {Node: 5, Gen: -1}, {Node: 5, Gen: 3}} {
		fs := NewSet(Link{Node: 7, Gen: 1}, bad, Link{Node: 200, Gen: 9})
		name := fmt.Sprintf("%+v", bad)
		if _, err := BFS(g, fs, perm.Identity(5)); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("BFS with %s: error %v, want one naming %s", name, err, name)
		}
		if _, err := NewRoutedTopology(g, fs); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("NewRoutedTopology with %s: error %v, want one naming %s", name, err, name)
		}
		if _, err := MirrorUndirected(g, fs); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("MirrorUndirected with %s: error %v, want one naming %s", name, err, name)
		}
	}
	// Every link of the graph is accepted, including the last.
	if _, err := BFS(g, NewSet(Link{Node: 119, Gen: 2}, Link{Node: 0, Gen: 0}), perm.Identity(5)); err != nil {
		t.Errorf("in-range links refused: %v", err)
	}
}
