package scg

import (
	"strings"
	"testing"
)

func TestGameStatsFacade(t *testing.T) {
	rules, err := NewGame(3, 2, InsertionBalls, RotateBoxesAll)
	if err != nil {
		t.Fatal(err)
	}
	u, err := ParseNode("5342671")
	if err != nil {
		t.Fatal(err)
	}
	moves, err := Solve(rules, u)
	if err != nil {
		t.Fatal(err)
	}
	st := AnalyzeGame(rules, u, moves)
	if st.Moves != len(moves) {
		t.Fatal("stats moves")
	}
	if st.Color0Events > Color0Bound(rules) {
		t.Fatalf("color-0 events %d above bound %d", st.Color0Events, Color0Bound(rules))
	}
	if got := FormatBoxes(rules, u); !strings.HasPrefix(got, "5 [34]") {
		t.Fatalf("FormatBoxes = %q", got)
	}
}

func TestRoutingStretchFacade(t *testing.T) {
	nw, err := NewCompleteRotationStar(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := MeasureRoutingStretch(nw, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pairs == 0 || st.MeanStretch < 1 {
		t.Fatalf("stretch %+v", st)
	}
	src, dst := RandomNode(5, 1), RandomNode(5, 2)
	links, err := ShortestRoute(nw, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	moves, err := nw.Route(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) < len(links) {
		t.Fatalf("algorithmic route %d shorter than exact %d", len(moves), len(links))
	}
}

func TestOpenLoopFacade(t *testing.T) {
	nw, err := NewMacroStar(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := NewSimNetwork(nw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunOpenLoop(topo, 0.05, 100, AllPort, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected == 0 || res.Delivered+res.Backlog != res.Injected {
		t.Fatalf("open loop conservation: %+v", res)
	}
	sat, err := SaturationThroughput(topo, 60, AllPort, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sat <= 0 || sat > 1 {
		t.Fatalf("saturation %v", sat)
	}
}

func TestFacadeCoverageSweep(t *testing.T) {
	// New dispatch + formulas.
	nw, err := New(CompleteRISFamily, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	deg, err := DegreeFormula(CompleteRISFamily, 3, 2)
	if err != nil || deg != nw.Degree() {
		t.Fatalf("DegreeFormula %d vs %d (%v)", deg, nw.Degree(), err)
	}
	ub, err := DiameterUpperBoundFormula(CompleteRISFamily, 3, 2)
	if err != nil || ub != nw.DiameterUpperBound() {
		t.Fatalf("DiameterUpperBoundFormula %d vs %d (%v)", ub, nw.DiameterUpperBound(), err)
	}

	// Star -> MS emulation facade.
	rep, err := MeasureStarIntoMS(3, 2, 0)
	if err != nil || rep.Dilation != 3 {
		t.Fatalf("MeasureStarIntoMS: %+v %v", rep, err)
	}
	star, err := SolveStar(RandomNode(7, 4))
	if err != nil {
		t.Fatal(err)
	}
	msMoves, err := EmulateStarOnMS(3, 2, star)
	if err != nil || len(msMoves) > 3*len(star) {
		t.Fatalf("EmulateStarOnMS: %d vs %d (%v)", len(msMoves), len(star), err)
	}

	// Optimal distance facade.
	rules, err := NewGame(2, 2, TranspositionBalls, SwapBoxes)
	if err != nil {
		t.Fatal(err)
	}
	d, err := GameDistance(rules, RandomNode(5, 6), 0)
	if err != nil || d < 1 {
		t.Fatalf("GameDistance: %d %v", d, err)
	}

	// Comparison table + renderers.
	rows, err := CompareTable(2, 2, true)
	if err != nil || len(rows) != 10 {
		t.Fatalf("CompareTable: %d rows %v", len(rows), err)
	}
	if RenderCompareTable(rows) == "" {
		t.Fatal("RenderCompareTable")
	}
	f4, err := Fig4Degrees()
	if err != nil {
		t.Fatal(err)
	}
	if RenderASCIIFigure("f4", f4, 40, 12, false) == "" {
		t.Fatal("RenderASCIIFigure")
	}

	// Buffered sim + hotspot facade.
	msNw, err := NewMacroStar(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := NewSimNetwork(msNw)
	if err != nil {
		t.Fatal(err)
	}
	pkts := HotspotWorkload(topo.NumNodes(), 200, 0, 0.3, 2)
	res, err := RunUnicastBuffered(topo, pkts, AllPort, 16, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != int64(len(pkts)) {
		t.Fatalf("buffered delivered %d of %d", res.Delivered, len(pkts))
	}

	// Fault-routed topology facade.
	fs, err := MirrorFaultsUndirected(msNw, NewFaultSet(FaultLink{Node: 9, Gen: 2}))
	if err != nil {
		t.Fatal(err)
	}
	ft, err := NewFaultRoutedTopology(msNw, fs)
	if err != nil {
		t.Fatal(err)
	}
	fres, err := RunUnicast(ft, PermutationRouting(ft.NumNodes(), 8), AllPort, 0, nil)
	if err != nil || fres.Delivered == 0 {
		t.Fatalf("fault-routed run: %v %v", fres, err)
	}

	// SIP facade round trip.
	sipRules, err := NewGame(3, 2, TranspositionBalls, SwapBoxes)
	if err != nil {
		t.Fatal(err)
	}
	u := IPLabel{2, 4, 1, 3, 2, 1, 3}
	moves, err := SolveSIP(sipRules, u)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySIP(sipRules, u, moves); err != nil {
		t.Fatal(err)
	}
	goal := SIPGoal(3, 2)
	if goal.String() != "4112233" {
		t.Fatalf("SIPGoal = %v", goal)
	}
}
