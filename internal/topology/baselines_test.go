package topology

import "testing"

// TestHypercubeFormulaVsBFS cross-checks closed forms with BFS on explicit
// instances.
func TestHypercubeFormulaVsBFS(t *testing.T) {
	for d := 1; d <= 10; d++ {
		h, err := NewHypercube(d)
		if err != nil {
			t.Fatal(err)
		}
		if h.Nodes != int64(1)<<uint(d) || h.Degree != d {
			t.Fatalf("hypercube(%d): N=%d degree=%d", d, h.Nodes, h.Degree)
		}
		got, err := h.graph.DiameterExact()
		if err != nil {
			t.Fatal(err)
		}
		if got != h.Diameter {
			t.Errorf("hypercube(%d): BFS diameter %d, formula %d", d, got, h.Diameter)
		}
	}
}

func TestTorusFormulaVsBFS(t *testing.T) {
	for a := 2; a <= 9; a++ {
		tor, err := NewTorus2D(a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tor.graph.DiameterExact()
		if err != nil {
			t.Fatal(err)
		}
		if got != tor.Diameter {
			t.Errorf("torus2d(%d): BFS %d, formula %d", a, got, tor.Diameter)
		}
		wantDeg := 4
		if a == 2 {
			wantDeg = 2
		}
		if tor.Degree != wantDeg {
			t.Errorf("torus2d(%d): degree %d", a, tor.Degree)
		}
	}
	for a := 2; a <= 6; a++ {
		tor, err := NewTorus3D(a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tor.graph.DiameterExact()
		if err != nil {
			t.Fatal(err)
		}
		if got != tor.Diameter {
			t.Errorf("torus3d(%d): BFS %d, formula %d", a, got, tor.Diameter)
		}
	}
}

func TestKAryNCubeFormulaVsBFS(t *testing.T) {
	cases := []struct{ a, n int }{{2, 4}, {3, 3}, {4, 3}, {5, 2}, {2, 8}}
	for _, c := range cases {
		kc, err := NewKAryNCube(c.a, c.n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := kc.graph.DiameterExact()
		if err != nil {
			t.Fatal(err)
		}
		if got != kc.Diameter {
			t.Errorf("%d-ary %d-cube: BFS %d, formula %d", c.a, c.n, got, kc.Diameter)
		}
	}
	// Radix-2 k-ary n-cube degenerates to the hypercube.
	kc, err := NewKAryNCube(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if kc.Degree != 5 || kc.Diameter != 5 {
		t.Errorf("2-ary 5-cube: degree %d diameter %d, want 5/5", kc.Degree, kc.Diameter)
	}
}

func TestCCCFormulaVsBFS(t *testing.T) {
	for d := 3; d <= 6; d++ {
		c, err := NewCCC(d)
		if err != nil {
			t.Fatal(err)
		}
		if c.Nodes != int64(d)<<uint(d) || c.Degree != 3 {
			t.Fatalf("ccc(%d): N=%d degree=%d", d, c.Nodes, c.Degree)
		}
		// CCC is vertex-transitive; BFS from node 0 gives the diameter.
		got, err := c.graph.DiameterExact()
		if err != nil {
			t.Fatal(err)
		}
		if got != c.Diameter {
			t.Errorf("ccc(%d): BFS diameter %d, formula %d", d, got, c.Diameter)
		}
	}
}

func TestBaselineValidation(t *testing.T) {
	if _, err := NewHypercube(0); err == nil {
		t.Error("hypercube d=0 accepted")
	}
	if _, err := NewHypercube(63); err == nil {
		t.Error("hypercube d=63 accepted")
	}
	if _, err := NewTorus2D(1); err == nil {
		t.Error("torus2d(1) accepted")
	}
	if _, err := NewCCC(2); err == nil {
		t.Error("ccc(2) accepted")
	}
	if _, err := NewKAryNCube(1, 2); err == nil {
		t.Error("1-ary cube accepted")
	}
}

func TestBaselineAtSize(t *testing.T) {
	cases := []struct {
		family string
		nodes  int64
	}{
		{"hypercube", 5000}, {"torus2d", 5000}, {"torus3d", 5000}, {"ccc", 5000},
	}
	for _, c := range cases {
		b, err := BaselineAtSize(c.family, c.nodes)
		if err != nil {
			t.Fatalf("%s: %v", c.family, err)
		}
		if b.Nodes < c.nodes {
			t.Errorf("%s at %d gave only %d nodes", c.family, c.nodes, b.Nodes)
		}
	}
	if _, err := BaselineAtSize("pyramid", 100); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := BaselineAtSize("hypercube", 1); err == nil {
		t.Error("size 1 accepted")
	}
	// The chosen instance should not be grossly oversized for power families.
	h, err := BaselineAtSize("hypercube", 1025)
	if err != nil {
		t.Fatal(err)
	}
	if h.Nodes != 2048 {
		t.Errorf("hypercube at 1025 nodes = %d, want 2048", h.Nodes)
	}
}

func TestBaselineStringer(t *testing.T) {
	h, err := NewHypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	if h.String() == "" {
		t.Error("empty String")
	}
	if h.BisectionLinks != 8 {
		t.Errorf("hypercube(4) bisection %d, want 8", h.BisectionLinks)
	}
}
