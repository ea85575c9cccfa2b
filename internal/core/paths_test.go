package core

import (
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
