package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/perm"
)

// TestShortestPathMatchesBFSDistance checks ShortestPath's walk from
// random sources, on an undirected and a directed graph, against the
// oracle's search from that source: the walk must end at dst after
// exactly dist(src, dst) hops.
func TestShortestPathMatchesBFSDistance(t *testing.T) {
	rng := perm.NewRNG(3)
	for _, g := range []*Graph{starGraph(5), rotatorGraph(5)} {
		for trial := 0; trial < 20; trial++ {
			src, dst := perm.Random(5, rng), perm.Random(5, rng)
			path, err := g.ShortestPath(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			if want := oracleBFS(g, src, nil).Dist.At(dst.Rank()); int32(len(path)) != want {
				t.Fatalf("%s: path length %d != oracle distance %d for %v -> %v", g.Name(), len(path), want, src, dst)
			}
			end, err := g.WalkLinks(src, path)
			if err != nil {
				t.Fatal(err)
			}
			if !end.Equal(dst) {
				t.Fatalf("%s: walk from %v ends at %v, want %v", g.Name(), src, end, dst)
			}
		}
	}
}

func TestShortestPathTrivialAndErrors(t *testing.T) {
	g := starGraph(4)
	p, err := g.ShortestPath(perm.Identity(4), perm.Identity(4))
	if err != nil || len(p) != 0 {
		t.Fatalf("identity path: %v %v", p, err)
	}
	if _, err := g.ShortestPath(perm.Identity(4), perm.Identity(5)); err == nil {
		t.Error("size mismatch accepted")
	}
	// Unreachable in a disconnected graph.
	dg := NewGraph("t2", gen.MustSet(4, gen.NewTransposition(2)))
	if _, err := dg.ShortestPath(perm.Identity(4), perm.MustNew([]int{1, 3, 2, 4})); err == nil {
		t.Error("unreachable destination accepted")
	}
	if _, err := g.WalkLinks(perm.Identity(4), []int{99}); err == nil {
		t.Error("bad link index accepted")
	}
}

func TestMeasureStretchStarSolver(t *testing.T) {
	g := starGraph(5)
	route := func(src, dst perm.Perm) (int, error) {
		// The AHK star solver as the algorithm under test.
		u := dst.Inverse().Compose(src)
		moves, err := solveStarForTest(u)
		if err != nil {
			return 0, err
		}
		return len(moves), nil
	}
	st, err := g.MeasureStretch(40, 7, route)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pairs == 0 {
		t.Fatal("no pairs measured")
	}
	if st.MeanStretch < 1 || st.MaxStretch < st.MeanStretch {
		t.Fatalf("stretch stats inconsistent: %+v", st)
	}
	// The AHK algorithm is near-optimal on the star graph: mean stretch
	// should stay modest.
	if st.MeanStretch > 1.5 {
		t.Errorf("star solver mean stretch %f surprisingly high", st.MeanStretch)
	}
	t.Logf("star(5) solver stretch: mean %.3f max %.3f optimal %d/%d",
		st.MeanStretch, st.MaxStretch, st.Optimal, st.Pairs)
}

// solveStarForTest is a minimal copy of the AHK loop to avoid an import
// cycle with internal/bag (core must stay below bag in the dependency
// order).
func solveStarForTest(u perm.Perm) ([]gen.Generator, error) {
	cfg := u.Clone()
	k := len(cfg)
	var moves []gen.Generator
	for !cfg.IsIdentity() {
		if x := cfg[0]; x != 1 {
			g := gen.NewTransposition(x)
			g.Apply(cfg)
			moves = append(moves, g)
			continue
		}
		for i := 2; i <= k; i++ {
			if cfg[i-1] != i {
				g := gen.NewTransposition(i)
				g.Apply(cfg)
				moves = append(moves, g)
				break
			}
		}
	}
	return moves, nil
}

func TestMeasureStretchRejectsSubOptimalClaim(t *testing.T) {
	g := starGraph(4)
	// A cheating route function that claims 0-length paths must be caught.
	cheat := func(src, dst perm.Perm) (int, error) { return 0, nil }
	if _, err := g.MeasureStretch(20, 3, cheat); err == nil {
		t.Error("impossible path lengths accepted")
	}
}

// WalkLinks applies the generator-index sequence to src and returns the end
// node; used to validate ShortestPath results. The walk ping-pongs between
// two fixed buffers with ComposeInto, so it allocates the result and
// nothing else regardless of path length.
func (g *Graph) WalkLinks(src perm.Perm, links []int) (perm.Perm, error) {
	cur := src.Clone()
	buf := make(perm.Perm, len(src))
	for _, li := range links {
		if li < 0 || li >= len(g.genPerms) {
			return nil, fmt.Errorf("core: WalkLinks: link %d out of range", li)
		}
		cur.ComposeInto(g.genPerms[li], buf)
		cur, buf = buf, cur
	}
	return cur, nil
}

// ShortestPath returns a minimum-hop generator-index sequence from src to
// dst (k <= MaxExplicitK). It is the exact-routing oracle used to measure
// how far the game solvers are from optimal. It searches from the
// identity only: left multiplication by src⁻¹ is an automorphism, so the
// path is the one from I to x = src⁻¹∘dst, found by walking back from x
// along any generator g whose predecessor x∘g⁻¹ is one hop closer.
func (g *Graph) ShortestPath(src, dst perm.Perm) ([]int, error) {
	k := g.K()
	if k > MaxExplicitK {
		return nil, fmt.Errorf("core: ShortestPath: k=%d exceeds MaxExplicitK", k)
	}
	if len(src) != k || len(dst) != k {
		return nil, fmt.Errorf("core: ShortestPath: label size mismatch")
	}
	if src.Equal(dst) {
		return nil, nil
	}
	prof, err := g.BFS(perm.Identity(k))
	if err != nil {
		return nil, err
	}
	x := src.Inverse().Compose(dst)
	d := prof.Dist.At(x.Rank())
	if d < 0 {
		return nil, fmt.Errorf("core: ShortestPath: %v unreachable from %v", dst, src)
	}
	inv := make([]perm.Perm, len(g.genPerms))
	for i, gp := range g.genPerms {
		inv[i] = gp.Inverse()
	}
	path := make([]int, d)
	pred := make(perm.Perm, k)
	for ; d > 0; d-- {
		for i, gi := range inv {
			x.ComposeInto(gi, pred)
			if prof.Dist.At(pred.Rank()) == d-1 {
				path[d-1] = i
				x, pred = pred, x
				break
			}
		}
	}
	return path, nil
}
