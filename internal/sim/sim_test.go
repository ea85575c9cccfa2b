package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/perm"
	"repro/internal/topology"
)

func permTopo(t *testing.T, fam topology.Family, l, n int) *PermTopology {
	t.Helper()
	nw, err := topology.New(fam, l, n)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := NewPermTopology(nw)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

func TestPermTopologyNeighborsMatchPaths(t *testing.T) {
	pt := permTopo(t, topology.MS, 2, 2)
	n := pt.NumNodes()
	if n != 120 {
		t.Fatalf("N = %d", n)
	}
	// Walking any path via Neighbor must land on the destination.
	for src := int64(0); src < n; src += 7 {
		for dst := int64(0); dst < n; dst += 11 {
			path, err := pt.Path(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			cur := src
			for _, link := range path {
				cur = pt.Neighbor(cur, link)
			}
			if cur != dst {
				t.Fatalf("path %d->%d ends at %d", src, dst, cur)
			}
		}
	}
}

// TestPermTopologyNeighborIsCompose holds Neighbor(r, j) to its
// definition, Rank(Unrank(r) ∘ g_j): on every (node, link) of every
// instance of all 15 families with k <= 7 (each has a router), and on
// sampled nodes of MS(3,3), a k = 10 instance.
func TestPermTopologyNeighborIsCompose(t *testing.T) {
	for _, fam := range topology.AllFamilies() {
		insts, err := topology.EnumerateInstances(fam, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range insts {
			nw, err := topology.New(fam, in.L, in.N)
			if err != nil {
				t.Fatal(err)
			}
			pt, err := NewPermTopology(nw)
			if err != nil {
				t.Fatal(err)
			}
			gps := nw.Graph().GeneratorSet().Perms()
			cur := perm.Identity(nw.K()) // rank r; NextPermutation steps in rank order
			next := make(perm.Perm, nw.K())
			for r := int64(0); r < pt.NumNodes(); r, _ = r+1, cur.NextPermutation() {
				for j, gp := range gps {
					cur.ComposeInto(gp, next)
					if got, want := pt.Neighbor(r, j), next.Rank(); got != want {
						t.Fatalf("%s: Neighbor(%d, %d) = %d, want %d", pt.Name(), r, j, got, want)
					}
				}
			}
		}
	}
	pt := permTopo(t, topology.MS, 3, 3)
	gps := pt.nw.Graph().GeneratorSet().Perms()
	rng := perm.NewRNG(10)
	for i := 0; i < 2000; i++ {
		r := int64(rng.Intn(int(pt.NumNodes())))
		u := perm.Unrank(10, r)
		for j, gp := range gps {
			if got, want := pt.Neighbor(r, j), u.Compose(gp).Rank(); got != want {
				t.Fatalf("%s: Neighbor(%d, %d) = %d, want %d", pt.Name(), r, j, got, want)
			}
		}
	}
}

// TestPermTopologyRefusesBeyondMaxExplicitK: the simulator reads hops from
// the graph's neighbor table, which is enumerable only up to MaxExplicitK.
func TestPermTopologyRefusesBeyondMaxExplicitK(t *testing.T) {
	nw, err := topology.NewStar(core.MaxExplicitK + 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPermTopology(nw); err == nil {
		t.Errorf("NewPermTopology(%s) accepted k=%d > MaxExplicitK", nw.Name(), nw.K())
	}
}

func TestHypercubePaths(t *testing.T) {
	h, err := NewHypercubeTopology(4)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumNodes() != 16 || h.Degree() != 4 {
		t.Fatal("hypercube shape")
	}
	for src := int64(0); src < 16; src++ {
		for dst := int64(0); dst < 16; dst++ {
			path, err := h.Path(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			// e-cube path length equals Hamming distance.
			hd := 0
			for x := src ^ dst; x != 0; x &= x - 1 {
				hd++
			}
			if len(path) != hd {
				t.Fatalf("path %d->%d has %d hops, want %d", src, dst, len(path), hd)
			}
			cur := src
			for _, link := range path {
				cur = h.Neighbor(cur, link)
			}
			if cur != dst {
				t.Fatalf("hypercube path ends at %d", cur)
			}
		}
	}
	if _, err := NewHypercubeTopology(0); err == nil {
		t.Error("d=0 accepted")
	}
}

func TestTorusPaths(t *testing.T) {
	tor, err := NewTorusTopology(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tor.NumNodes() != 25 || tor.Degree() != 4 {
		t.Fatal("torus shape")
	}
	maxLen := 0
	for src := int64(0); src < 25; src++ {
		for dst := int64(0); dst < 25; dst++ {
			path, err := tor.Path(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			cur := src
			for _, link := range path {
				cur = tor.Neighbor(cur, link)
			}
			if cur != dst {
				t.Fatalf("torus path %d->%d ends at %d", src, dst, cur)
			}
			if len(path) > maxLen {
				maxLen = len(path)
			}
		}
	}
	// Shortest-direction dimension-order routing: diameter 2·⌊5/2⌋ = 4.
	if maxLen != 4 {
		t.Errorf("torus(5^2) longest path %d, want 4", maxLen)
	}
	if _, err := NewTorusTopology(1, 2); err == nil {
		t.Error("radix 1 accepted")
	}
}

func TestRunUnicastPermutationBothModels(t *testing.T) {
	pt := permTopo(t, topology.MS, 2, 2)
	pkts := PermutationRouting(pt.NumNodes(), 42)
	all, err := RunUnicast(pt, pkts, AllPort, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	single, err := RunUnicast(pt, pkts, SinglePort, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if all.Delivered != int64(len(pkts)) || single.Delivered != int64(len(pkts)) {
		t.Fatalf("delivered %d/%d of %d", all.Delivered, single.Delivered, len(pkts))
	}
	if single.Steps < all.Steps {
		t.Errorf("single-port (%d steps) beat all-port (%d steps)", single.Steps, all.Steps)
	}
	if all.TotalHops != single.TotalHops {
		t.Errorf("hop counts differ: %d vs %d (same source routes)", all.TotalHops, single.TotalHops)
	}
	if all.String() == "" {
		t.Error("Result.String empty")
	}
}

// TestMaxQueueLenCountsInjection: five one-hop packets 0->1 on
// hypercube(3) all wait in node 0's link-0 queue before the first step,
// so both buffer models read a deepest queue of 5, the unbounded one
// before any packet has moved.
func TestMaxQueueLenCountsInjection(t *testing.T) {
	h, err := NewHypercubeTopology(3)
	if err != nil {
		t.Fatal(err)
	}
	pkts := make([]Packet, 5)
	for i := range pkts {
		pkts[i] = Packet{Src: 0, Dst: 1}
	}
	unb, err := RunUnicast(h, pkts, AllPort, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := RunUnicastBuffered(h, pkts, AllPort, 8, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if unb.MaxQueueLen != 5 || buf.MaxQueueLen != 5 {
		t.Errorf("MaxQueueLen unbounded %d, buffered %d; want 5 for both", unb.MaxQueueLen, buf.MaxQueueLen)
	}
}

func TestRunUnicastSelfAndErrors(t *testing.T) {
	pt := permTopo(t, topology.MS, 2, 2)
	res, err := RunUnicast(pt, []Packet{{Src: 3, Dst: 3}}, AllPort, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 1 || res.Steps != 0 || res.TotalHops != 0 {
		t.Errorf("self packet: %+v", res)
	}
	if _, err := RunUnicast(pt, []Packet{{Src: -1, Dst: 3}}, AllPort, 0, nil); err == nil {
		t.Error("negative src accepted")
	}
	if _, err := RunUnicast(pt, []Packet{{Src: 0, Dst: 5}}, AllPort, 1, nil); err == nil {
		t.Error("maxSteps=1 should time out")
	}
}

func TestTotalExchangeWorkload(t *testing.T) {
	pkts := TotalExchange(5)
	if len(pkts) != 20 {
		t.Fatalf("TE(5) has %d packets", len(pkts))
	}
	seen := map[Packet]bool{}
	for _, p := range pkts {
		if p.Src == p.Dst || seen[p] {
			t.Fatalf("bad packet %v", p)
		}
		seen[p] = true
	}
}

func TestRandomAndPermutationWorkloads(t *testing.T) {
	pkts := RandomRouting(100, 500, 7)
	if len(pkts) != 500 {
		t.Fatal("count")
	}
	for _, p := range pkts {
		if p.Src == p.Dst || p.Src < 0 || p.Src >= 100 || p.Dst < 0 || p.Dst >= 100 {
			t.Fatalf("bad packet %v", p)
		}
	}
	// Determinism.
	again := RandomRouting(100, 500, 7)
	for i := range pkts {
		if pkts[i] != again[i] {
			t.Fatal("RandomRouting not deterministic")
		}
	}
	perm := PermutationRouting(50, 3)
	dsts := map[int64]bool{}
	srcs := map[int64]bool{}
	for _, p := range perm {
		if srcs[p.Src] || dsts[p.Dst] {
			t.Fatalf("duplicate endpoint in permutation workload: %v", p)
		}
		srcs[p.Src] = true
		dsts[p.Dst] = true
	}
}

func TestTotalExchangeOnSmallNetworks(t *testing.T) {
	// TE must complete on every family; compare MS with hypercube of
	// similar size for shape (no strict assertion beyond completion and
	// conservation).
	pt := permTopo(t, topology.MS, 2, 2) // N = 120
	pkts := TotalExchange(pt.NumNodes())
	res, err := RunUnicast(pt, pkts, AllPort, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != int64(len(pkts)) {
		t.Fatalf("TE delivered %d of %d", res.Delivered, len(pkts))
	}
	h, err := NewHypercubeTopology(7) // N = 128
	if err != nil {
		t.Fatal(err)
	}
	hres, err := RunUnicast(h, TotalExchange(h.NumNodes()), AllPort, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("TE all-port: %s %v | %s %v", pt.Name(), res, h.Name(), hres)
}

func TestRunBroadcastCompletesAndMatchesLowerBound(t *testing.T) {
	pt := permTopo(t, topology.MS, 2, 2)
	n := pt.NumNodes()
	res, err := RunBroadcast(pt, AllPort, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != n*(n-1) {
		t.Fatalf("informs %d, want %d", res.Delivered, n*(n-1))
	}
	lb := MNBLowerBound(n, pt.Degree(), AllPort)
	if int64(res.Steps) < lb {
		t.Errorf("MNB finished in %d steps, below lower bound %d", res.Steps, lb)
	}
	single, err := RunBroadcast(pt, SinglePort, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if single.Steps < res.Steps {
		t.Errorf("single-port MNB (%d) faster than all-port (%d)", single.Steps, res.Steps)
	}
	if int64(single.Steps) < MNBLowerBound(n, pt.Degree(), SinglePort) {
		t.Errorf("single-port MNB %d below lower bound %d", single.Steps, MNBLowerBound(n, pt.Degree(), SinglePort))
	}
}

func TestRunBroadcastGuards(t *testing.T) {
	h, err := NewHypercubeTopology(14)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunBroadcast(h, AllPort, 0, nil); err == nil {
		t.Error("oversized broadcast accepted")
	}
	small, err := NewHypercubeTopology(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunBroadcast(small, AllPort, 1, nil); err == nil {
		t.Error("maxSteps=1 broadcast should time out")
	}
}

func TestMNBLowerBound(t *testing.T) {
	if MNBLowerBound(120, 3, AllPort) != 40 {
		t.Error("all-port bound")
	}
	if MNBLowerBound(120, 3, SinglePort) != 119 {
		t.Error("single-port bound")
	}
}

func TestHotspotWorkload(t *testing.T) {
	pkts := Hotspot(100, 400, 7, 0.5, 3)
	if len(pkts) != 400 {
		t.Fatal("count")
	}
	hot := 0
	for _, p := range pkts {
		if p.Src == p.Dst {
			t.Fatalf("self packet %v", p)
		}
		if p.Dst == 7 {
			hot++
		}
	}
	// Roughly half (plus uniform collisions) target the hot node.
	if hot < 150 || hot > 280 {
		t.Fatalf("hotspot packets %d out of expected band", hot)
	}
	// Hotspot traffic completes but with worse congestion than uniform.
	pt := permTopo(t, topology.MS, 2, 2)
	hotRes, err := RunUnicast(pt, Hotspot(pt.NumNodes(), 500, 0, 0.5, 5), AllPort, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	uniRes, err := RunUnicast(pt, RandomRouting(pt.NumNodes(), 500, 5), AllPort, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hotRes.Steps < uniRes.Steps {
		t.Errorf("hotspot (%d steps) finished before uniform (%d steps)", hotRes.Steps, uniRes.Steps)
	}
	t.Logf("hotspot steps=%d maxQ=%d vs uniform steps=%d maxQ=%d",
		hotRes.Steps, hotRes.MaxQueueLen, uniRes.Steps, uniRes.MaxQueueLen)
}

func TestLoadGini(t *testing.T) {
	if g := metrics.LoadGini([]int64{5, 5, 5, 5}); g != 0 {
		t.Errorf("uniform gini = %v", g)
	}
	if g := metrics.LoadGini([]int64{0, 0, 0, 12}); g < 0.7 {
		t.Errorf("concentrated gini = %v", g)
	}
	if g := metrics.LoadGini(nil); g != 0 {
		t.Errorf("empty gini = %v", g)
	}
	// TE on a vertex-symmetric network routes near-uniformly: Gini stays
	// small; hotspot traffic concentrates load.
	pt := permTopo(t, topology.MS, 2, 2)
	te, err := RunUnicast(pt, TotalExchange(pt.NumNodes()), AllPort, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := RunUnicast(pt, Hotspot(pt.NumNodes(), 2000, 0, 0.8, 3), AllPort, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if te.LoadGini >= hot.LoadGini {
		t.Errorf("TE gini %.3f not below hotspot gini %.3f", te.LoadGini, hot.LoadGini)
	}
	if te.LoadGini > 0.25 {
		t.Errorf("TE gini %.3f too high for a symmetric workload", te.LoadGini)
	}
	t.Logf("link-load Gini: TE %.4f, hotspot %.4f", te.LoadGini, hot.LoadGini)
}

func BenchmarkTotalExchangeSim(b *testing.B) {
	nw, err := topology.NewMS(2, 2)
	if err != nil {
		b.Fatal(err)
	}
	pt, err := NewPermTopology(nw)
	if err != nil {
		b.Fatal(err)
	}
	pkts := TotalExchange(pt.NumNodes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunUnicast(pt, pkts, AllPort, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBroadcastFloodSim(b *testing.B) {
	nw, err := topology.NewMS(2, 2)
	if err != nil {
		b.Fatal(err)
	}
	pt, err := NewPermTopology(nw)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunBroadcast(pt, AllPort, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// Hotspot builds a workload where `fraction` of the traffic targets a single
// hot node and the rest is uniform random — the classic stress pattern for
// link-balance claims. count packets total, deterministic in seed.
func Hotspot(n int64, count int, hot int64, fraction float64, seed uint64) []Packet {
	rng := perm.NewRNG(seed)
	pkts := make([]Packet, 0, count)
	for i := 0; i < count; i++ {
		s := int64(rng.Intn(int(n)))
		var d int64
		if rng.Float64() < fraction {
			d = hot
		} else {
			d = int64(rng.Intn(int(n)))
		}
		for d == s {
			d = int64(rng.Intn(int(n)))
		}
		pkts = append(pkts, Packet{Src: s, Dst: d})
	}
	return pkts
}
