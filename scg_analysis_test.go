package scg

import (
	"strings"
	"testing"

	"repro/internal/topology"
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
	nw, err := New(topology.CompleteRIS, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	deg, err := DegreeFormula(topology.CompleteRIS, 3, 2)
	if err != nil || deg != nw.Degree() {
		t.Fatalf("DegreeFormula %d vs %d (%v)", deg, nw.Degree(), err)
	}

	// Star -> MS emulation facade.
	star, err := SolveStar(RandomNode(7, 4))
	if err != nil {
		t.Fatal(err)
	}
	msMoves, err := EmulateStarOnMS(3, 2, star)
	if err != nil || len(msMoves) > 3*len(star) {
		t.Fatalf("EmulateStarOnMS: %d vs %d (%v)", len(msMoves), len(star), err)
	}

	// Fault-routed topology facade.
	msNw, err := NewMacroStar(2, 2)
	if err != nil {
		t.Fatal(err)
	}
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
