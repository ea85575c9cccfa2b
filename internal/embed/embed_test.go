package embed

import (
	"fmt"
	"testing"

	"repro/internal/bag"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/perm"
	"repro/internal/topology"
)

// TestStarToISFactorization: T_i = I'_{i-1} ∘ I_i as group elements, for
// every i and k.
func TestStarToISFactorization(t *testing.T) {
	rng := perm.NewRNG(3)
	for k := 2; k <= 9; k++ {
		for i := 2; i <= k; i++ {
			path, err := StarToIS(i)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 10; trial++ {
				u := perm.Random(k, rng)
				want := gen.NewTransposition(i).ApplyTo(u)
				got := u.Clone()
				for _, g := range path {
					g.Apply(got)
				}
				if !got.Equal(want) {
					t.Fatalf("k=%d i=%d: path %v ends at %v, want %v", k, i, path, got, want)
				}
			}
		}
	}
	if _, err := StarToIS(1); err == nil {
		t.Error("StarToIS(1) accepted")
	}
}

// TestStarIntoISDilationCongestion reproduces the §3.3.3 claim exactly:
// congestion 1 and dilation 2 for every size we can enumerate.
func TestStarIntoISDilationCongestion(t *testing.T) {
	for k := 3; k <= 6; k++ {
		rep, err := MeasureStarIntoIS(k, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Dilation != 2 {
			t.Errorf("k=%d: dilation %d, want 2", k, rep.Dilation)
		}
		if rep.Congestion != 1 {
			t.Errorf("k=%d: congestion %d, want 1", k, rep.Congestion)
		}
		if rep.AvgPathLen <= 1 || rep.AvgPathLen >= 2 {
			t.Errorf("k=%d: avg path length %v outside (1,2)", k, rep.AvgPathLen)
		}
	}
	// Sampled mode for a larger instance.
	rep, err := MeasureStarIntoIS(9, 50)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dilation != 2 || rep.Congestion != 1 {
		t.Errorf("k=9 sampled: dilation %d congestion %d", rep.Dilation, rep.Congestion)
	}
}

// TestNucleusRemovalDecomposition verifies §3.3.4: rotation-style networks
// decompose into k!/l rings, complete-rotation ones into k!/l complete
// graphs once nucleus links are removed.
func TestNucleusRemovalDecomposition(t *testing.T) {
	cases := []struct {
		fam   topology.Family
		shape ComponentShape
	}{
		{topology.RS, RingComponents},
		{topology.RR, RingComponents},
		{topology.RIS, RingComponents},
		{topology.CompleteRS, CompleteComponents},
		{topology.CompleteRR, CompleteComponents},
		{topology.CompleteRIS, CompleteComponents},
	}
	for _, c := range cases {
		for _, ln := range []struct{ l, n int }{{3, 2}, {4, 1}, {2, 3}} {
			nw, err := topology.New(c.fam, ln.l, ln.n)
			if err != nil {
				t.Fatal(err)
			}
			comps, err := NucleusRemovalDecomposition(nw, c.shape)
			if err != nil {
				t.Fatalf("%s: %v", nw.Name(), err)
			}
			want := perm.Factorial(nw.K()) / int64(ln.l)
			if comps != want {
				t.Errorf("%s: %d components, want k!/l = %d", nw.Name(), comps, want)
			}
		}
	}
}

func TestNucleusRemovalRejectsWrongShape(t *testing.T) {
	nw, err := topology.NewCompleteRS(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// complete-RS(4,1) components are K_4, not rings.
	if _, err := NucleusRemovalDecomposition(nw, RingComponents); err == nil {
		t.Error("K_4 components accepted as rings")
	}
	star, err := topology.NewStar(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NucleusRemovalDecomposition(star, RingComponents); err == nil {
		t.Error("star graph (no supers) accepted")
	}
}

// TestEmulateStarOnIS: a star route of length m becomes a legal IS route of
// length <= 2m reaching the same destination.
func TestEmulateStarOnIS(t *testing.T) {
	rng := perm.NewRNG(7)
	isNet, err := topology.NewIS(7)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		src, dst := perm.Random(7, rng), perm.Random(7, rng)
		u := dst.Inverse().Compose(src)
		starMoves, err := bag.SolveStar(u)
		if err != nil {
			t.Fatal(err)
		}
		isMoves, err := EmulateStarOnIS(starMoves)
		if err != nil {
			t.Fatal(err)
		}
		if len(isMoves) > 2*len(starMoves) {
			t.Fatalf("slowdown %d/%d exceeds 2", len(isMoves), len(starMoves))
		}
		if err := isNet.VerifyRoute(src, dst, isMoves); err != nil {
			t.Fatalf("emulated route invalid: %v", err)
		}
	}
	// Non-star moves are rejected.
	if _, err := EmulateStarOnIS([]gen.Generator{gen.NewInsertion(3)}); err == nil {
		t.Error("insertion accepted as star move")
	}
}

// ComponentShape describes what the super-generator-only subgraph of a
// network decomposes into.
type ComponentShape int

const (
	// RingComponents: each component is a directed or undirected l-cycle.
	RingComponents ComponentShape = iota
	// CompleteComponents: each component is a complete digraph K_l.
	CompleteComponents
)

// NucleusRemovalDecomposition removes all nucleus links from a super Cayley
// network and verifies the §3.3.4 structure: k!/l components, each an
// l-node ring (rotation pair / single) or complete graph (complete
// rotation). It returns the number of components found.
func NucleusRemovalDecomposition(nw *topology.Network, shape ComponentShape) (int64, error) {
	g := nw.Graph()
	k := g.K()
	if k > core.MaxExplicitK-1 {
		return 0, fmt.Errorf("embed: NucleusRemovalDecomposition: k=%d too large", k)
	}
	l := int64(nw.L())
	// supers holds the neighbor-table columns of the super generators.
	var supers []int
	for j, gg := range g.GeneratorSet().Generators() {
		if gg.Class() == gen.Super {
			supers = append(supers, j)
		}
	}
	if len(supers) == 0 {
		return 0, fmt.Errorf("embed: %s has no super generators", nw.Name())
	}
	tbl, err := g.EnsureNeighborTable(0)
	if err != nil {
		return 0, err
	}
	n := g.Order()
	comp := make([]int64, n)
	for i := range comp {
		comp[i] = -1
	}
	var components int64
	for start := int64(0); start < n; start++ {
		if comp[start] >= 0 {
			continue
		}
		// Collect the component by BFS over super links (both directions are
		// present in the closure because rotations have finite order).
		members := []int64{start}
		comp[start] = components
		for head := 0; head < len(members); head++ {
			for _, j := range supers {
				nr := tbl.At(members[head], j)
				if comp[nr] < 0 {
					comp[nr] = components
					members = append(members, nr)
				}
			}
		}
		if int64(len(members)) != l {
			return 0, fmt.Errorf("embed: %s: component of size %d, want l=%d", nw.Name(), len(members), l)
		}
		// Shape check: count super out-neighbors inside the component.
		for _, m := range members {
			distinct := make(map[int64]bool)
			for _, j := range supers {
				distinct[tbl.At(m, j)] = true
			}
			switch shape {
			case RingComponents:
				// A ring node reaches 1 (single rotation) or 2 (pair)
				// distinct neighbors, but never more.
				if len(distinct) > 2 || len(distinct) < 1 {
					return 0, fmt.Errorf("embed: %s: node has %d super neighbors, not a ring", nw.Name(), len(distinct))
				}
			case CompleteComponents:
				if int64(len(distinct)) != l-1 {
					return 0, fmt.Errorf("embed: %s: node reaches %d of %d others, not complete", nw.Name(), len(distinct), l-1)
				}
			}
		}
		components++
	}
	if components*l != n {
		return 0, fmt.Errorf("embed: %s: %d components of size %d != %d nodes", nw.Name(), components, l, n)
	}
	return components, nil
}
