package scg

import (
	"testing"

	"repro/internal/bag"
	"repro/internal/figures"
	"repro/internal/topology"
)

// TestQuickstartFlow exercises the façade end to end, mirroring the README
// quick start.
func TestQuickstartFlow(t *testing.T) {
	nw, err := NewMacroStar(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	src, err := ParseNode("5342671")
	if err != nil {
		t.Fatal(err)
	}
	dst := IdentityNode(nw.K())
	moves, err := nw.Route(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.VerifyRoute(src, dst, moves); err != nil {
		t.Fatal(err)
	}
	if len(MoveNames(moves)) != len(moves) {
		t.Fatal("MoveNames")
	}
	d, err := nw.Graph().Diameter()
	if err != nil {
		t.Fatal(err)
	}
	if d != 13 {
		t.Fatalf("MS(3,2) diameter = %d, want 13", d)
	}
}

func TestGameFacade(t *testing.T) {
	rules, err := NewGame(3, 2, InsertionBalls, RotateBoxesAll)
	if err != nil {
		t.Fatal(err)
	}
	u := RandomNode(7, 99)
	moves, err := Solve(rules, u)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyGame(rules, u, moves); err != nil {
		t.Fatal(err)
	}
	if len(moves) > bag.WorstCaseBound(rules) {
		t.Fatalf("solution %d beyond bound %d", len(moves), bag.WorstCaseBound(rules))
	}
	fixed, err := SolveWithOffset(rules, u, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) > len(fixed) {
		t.Fatal("best-offset solve longer than fixed-offset solve")
	}
	if _, err := NewGame(0, 2, InsertionBalls, RotateBoxesAll); err == nil {
		t.Error("invalid game accepted")
	}
	star, err := SolveStar(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(star) > 9 {
		t.Fatalf("star solution %d > ⌊3·6/2⌋", len(star))
	}
}

func TestAllFamilyConstructors(t *testing.T) {
	ctors := map[string]func() (*Network, error){
		"star":         func() (*Network, error) { return NewStarGraph(5) },
		"rotator":      func() (*Network, error) { return New(topology.Rotator, 1, 4) },
		"IS":           func() (*Network, error) { return NewISNetwork(5) },
		"MS":           func() (*Network, error) { return NewMacroStar(2, 2) },
		"RS":           func() (*Network, error) { return NewRotationStar(2, 2) },
		"complete-RS":  func() (*Network, error) { return NewCompleteRotationStar(3, 2) },
		"MR":           func() (*Network, error) { return NewMacroRotator(2, 2) },
		"RR":           func() (*Network, error) { return New(topology.RR, 2, 2) },
		"complete-RR":  func() (*Network, error) { return NewCompleteRotationRotator(3, 2) },
		"MIS":          func() (*Network, error) { return New(topology.MIS, 2, 2) },
		"RIS":          func() (*Network, error) { return NewRotationIS(2, 2) },
		"complete-RIS": func() (*Network, error) { return New(topology.CompleteRIS, 3, 2) },
	}
	for name, f := range ctors {
		nw, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !nw.Graph().Connected() {
			t.Errorf("%s: disconnected", name)
		}
	}
	if len(AllSuperCayleyFamilies()) != 9 {
		t.Error("family list")
	}
}

func TestMetricsFacade(t *testing.T) {
	a, err := AlphaRatio(13, 5040, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a <= 1 {
		t.Fatalf("alpha = %v", a)
	}
	if _, err := AvgDistanceLowerBound(5040, 4); err != nil {
		t.Fatal(err)
	}
	nw, err := NewMacroStar(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := MeasureMCMP(nw, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	if prof.InterclusterDegree != 2 {
		t.Fatalf("intercluster degree %d", prof.InterclusterDegree)
	}
	if _, err := BisectionLowerBound(1, float64(nw.Nodes()), prof.AvgInterclusterDistance); err != nil {
		t.Fatal(err)
	}
}

func TestSimFacade(t *testing.T) {
	nw, err := NewMacroStar(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := NewSimNetwork(nw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunUnicast(topo, PermutationRouting(topo.NumNodes(), 5), AllPort, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	bres, err := RunBroadcast(topo, SinglePort, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := topo.NumNodes()
	if bres.Delivered != n*(n-1) {
		t.Fatal("broadcast incomplete")
	}
	if _, err := NewSimHypercube(4); err != nil {
		t.Fatal(err)
	}
}

func TestEmbeddingFacade(t *testing.T) {
	rep, err := MeasureStarIntoIS(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dilation != 2 || rep.Congestion != 1 {
		t.Fatalf("embedding report %+v", rep)
	}
	star, err := SolveStar(RandomNode(6, 1))
	if err != nil {
		t.Fatal(err)
	}
	isMoves, err := EmulateStarOnIS(star)
	if err != nil {
		t.Fatal(err)
	}
	if len(isMoves) > 2*len(star) {
		t.Fatal("slowdown above 2")
	}
}

func TestFiguresFacade(t *testing.T) {
	for _, f := range []func() ([]figures.Series, error){Fig4Degrees, Fig5Diameters, Fig6Cost} {
		series, err := f()
		if err != nil {
			t.Fatal(err)
		}
		if len(series) < 4 {
			t.Fatalf("only %d series", len(series))
		}
	}
	rows, err := Table1(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("empty table")
	}
}
