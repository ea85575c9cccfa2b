package core_test

import (
	"flag"
	"runtime"
	"testing"

	"repro/internal/bag"
	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/topology"
)

// exhaustiveMaxK is the largest k the per-state sweeps cover: k = 9
// without the race detector, one less under it, and k <= 6 in -short mode.
func exhaustiveMaxK(full int) int {
	switch {
	case testing.Short():
		return 6
	case core.RaceEnabled:
		return full - 1
	}
	return full
}

// TestNeighborTableRowsExhaustive holds the factored table to its
// definition on every row, that is every (state, generator), of every
// instance of all 15 families with k <= 9: At(r, j) must equal
// Rank(Unrank(r) ∘ g_j).
func TestNeighborTableRowsExhaustive(t *testing.T) {
	for _, nw := range equivalenceInstances(t, exhaustiveMaxK(9)) {
		g := nw.Graph()
		k := g.K()
		tbl, err := g.EnsureNeighborTable(0)
		if err != nil {
			t.Fatal(err)
		}
		gps := g.GeneratorSet().Perms()
		cur := perm.Identity(k) // rank r; NextPermutation steps in rank order
		next := make(perm.Perm, k)
		for r := int64(0); r < g.Order(); r, _ = r+1, cur.NextPermutation() {
			for j, gp := range gps {
				cur.ComposeInto(gp, next)
				if got, want := tbl.At(r, j), next.Rank(); got != want {
					t.Fatalf("%s: At(%d,%d) = %d, want %d", g.Name(), r, j, got, want)
				}
			}
		}
		g.DropNeighborTable()
	}
}

// TestExactProfileFootprint keeps the materialized k!·deg table from
// coming back: a cold ExactProfile of MS(2,4) (k = 9, 362,880 states)
// must allocate at most 2 MiB in total. The columns hold 59,040 deltas
// (236 KB) and the search its byte-per-state distances and bitsets; a
// row table alone would be 6.9 MiB.
func TestExactProfileFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("k=9 profile skipped in -short mode")
	}
	nw, err := topology.NewMS(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	prof, err := nw.Graph().ExactProfile()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 2 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("cold ExactProfile of %s allocated %d bytes, limit %d", nw.Name(), got, limit)
	}
	if prof.Reachable != nw.Nodes() {
		t.Fatalf("%s: %d of %d states reachable", nw.Name(), prof.Reachable, nw.Nodes())
	}
}

// routeMaxK widens TestRouteEveryState past its default k <= 8, as a CI
// step does for k = 9 (12,760,290 states, 22–34 s on a 2-vCPU guest):
//
//	go test -run '^TestRouteEveryState$' ./internal/core -args -route-max-k 9
var routeMaxK = flag.Int("route-max-k", 0, "largest k TestRouteEveryState sweeps (0: 8, less under -race and -short)")

// TestRouteEveryState routes I → x for every state x of every instance of
// all 15 families with k <= 8 (or -route-max-k) and checks each route
// against the engine's exact distance table: it must verify, take at least
// Dist(x) hops and at most the family's guaranteed bound
// (bag.WorstCaseBound of its rule set, or the closed-form bound of a
// nucleus-only family) and the paper's printed diameter bound, where
// topology.PaperDiameterBound has one (star, rotator, MS, complete-RS),
// and exactly Dist(x) hops for the star, rotator, bubble-sort and
// transposition solvers, which are optimal.
func TestRouteEveryState(t *testing.T) {
	optimal := map[topology.Family]bool{
		topology.Star: true, topology.Rotator: true,
		topology.BubbleSort: true, topology.TranspositionNet: true,
	}
	maxK := exhaustiveMaxK(8)
	if *routeMaxK > 0 {
		maxK = *routeMaxK
	}
	var states int
	for _, nw := range equivalenceInstances(t, maxK) {
		g := nw.Graph()
		k := g.K()
		prof, err := g.ExactProfile()
		g.DropNeighborTable()
		if err != nil {
			t.Fatal(err)
		}
		bound := nw.DiameterUpperBound()
		if rules, ok := nw.Rules(); ok {
			bound = bag.WorstCaseBound(rules)
		}
		paper, printed := topology.PaperDiameterBound(nw.Family(), nw.L(), nw.N())
		id := perm.Identity(k)
		x := make(perm.Perm, k)
		scratch := make([]int, k)
		var route, verify topology.RouteScratch
		for r := int64(0); r < g.Order(); r++ {
			perm.UnrankInto(k, r, x, scratch)
			moves, err := route.RouteInto(nw, id, x)
			if err != nil {
				t.Fatalf("%s: route I -> %v: %v", nw.Name(), x, err)
			}
			if err := verify.VerifyRouteInto(nw, id, x, moves); err != nil {
				t.Fatalf("%s: route I -> %v does not verify: %v", nw.Name(), x, err)
			}
			hops, d := len(moves), int(prof.Dist.At(r))
			switch {
			case hops < d:
				t.Fatalf("%s: route I -> %v takes %d hops, below the exact distance %d", nw.Name(), x, hops, d)
			case hops > bound:
				t.Fatalf("%s: route I -> %v takes %d hops, above the bound %d", nw.Name(), x, hops, bound)
			case printed && hops > paper:
				t.Fatalf("%s: route I -> %v takes %d hops, above the paper's diameter bound %d", nw.Name(), x, hops, paper)
			case optimal[nw.Family()] && hops != d:
				t.Fatalf("%s: route I -> %v takes %d hops, exact distance %d", nw.Name(), x, hops, d)
			}
		}
		states += int(g.Order())
	}
	t.Logf("%d states routed", states)
}
