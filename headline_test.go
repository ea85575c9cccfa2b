package scg

import (
	"testing"

	"repro/internal/bag"
	"repro/internal/topology"
)

// TestHeadlineNumbers locks the repository's key measured results: any
// change to solvers, generators, or BFS that shifts these exact values is a
// regression (or a deliberate re-derivation that must update EXPERIMENTS.md).
func TestHeadlineNumbers(t *testing.T) {
	diameters := []struct {
		name string
		mk   func() (*Network, error)
		want int
	}{
		{"star(7)", func() (*Network, error) { return NewStarGraph(7) }, 9},
		{"rotator(7)", func() (*Network, error) { return New(topology.Rotator, 1, 6) }, 6},
		{"IS(7)", func() (*Network, error) { return NewISNetwork(7) }, 6},
		{"MS(3,2)", func() (*Network, error) { return NewMacroStar(3, 2) }, 13},
		{"RS(3,2)", func() (*Network, error) { return NewRotationStar(3, 2) }, 15},
		{"complete-RS(3,2)", func() (*Network, error) { return NewCompleteRotationStar(3, 2) }, 15},
		{"MR(3,2)", func() (*Network, error) { return NewMacroRotator(3, 2) }, 10},
		{"RR(3,2)", func() (*Network, error) { return New(topology.RR, 3, 2) }, 14},
		{"complete-RR(3,2)", func() (*Network, error) { return NewCompleteRotationRotator(3, 2) }, 13},
		{"MIS(3,2)", func() (*Network, error) { return New(topology.MIS, 3, 2) }, 10},
		{"RIS(3,2)", func() (*Network, error) { return NewRotationIS(3, 2) }, 13},
		{"complete-RIS(3,2)", func() (*Network, error) { return New(topology.CompleteRIS, 3, 2) }, 13},
	}
	for _, c := range diameters {
		nw, err := c.mk()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		d, err := nw.Graph().Diameter()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if d != c.want {
			t.Errorf("%s: exact diameter %d, recorded headline %d", c.name, d, c.want)
		}
	}

	// SIP quotient headline.
	g, err := NewSIP(3, 2, TranspositionBalls, SwapBoxes)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := g.Diameter(); err != nil || d != 9 {
		t.Errorf("SIP(3,2) diameter %d (err %v), headline 9", d, err)
	}
	order, err := g.Order()
	if err != nil || order != 630 {
		t.Errorf("SIP(3,2) order %d, headline 630", order)
	}

	// Figure 2 instance: 7-move insertion solution, optimal.
	rules, err := NewGame(3, 2, InsertionBalls, RotateBoxesAll)
	if err != nil {
		t.Fatal(err)
	}
	u, _ := ParseNode("5342671")
	moves, err := SolveWithOffset(rules, u, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 7 {
		t.Errorf("Figure 2 solution length %d, headline 7", len(moves))
	}
	opt, err := bag.SolveOptimal(rules, u, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt) != 7 {
		t.Errorf("Figure 2 optimal length %d, headline 7", len(opt))
	}

	// Tree MNB on MS(2,2) meets the single-port lower bound exactly.
	ms22, err := NewMacroStar(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := SimulateTreeMNB(ms22, SinglePort, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Steps != 119 {
		t.Errorf("tree MNB single-port %d steps, headline 119 (= N-1)", tree.Steps)
	}
}
