package metrics

import (
	"math"
	"testing"
)

func TestDLKnownValues(t *testing.T) {
	// Degree-3 network with N nodes: D_L = log2 N + log2(1/3).
	dl, err := DL(1024, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := 10 + math.Log2(1.0/3.0)
	if math.Abs(dl-want) > 1e-9 {
		t.Errorf("DL(1024,3) = %v, want %v", dl, want)
	}
	// Monotone decreasing in d.
	prev := math.MaxFloat64
	for d := 3; d <= 12; d++ {
		v, err := DL(1e6, d)
		if err != nil {
			t.Fatal(err)
		}
		if v >= prev {
			t.Errorf("DL not decreasing at d=%d: %v >= %v", d, v, prev)
		}
		prev = v
	}
}

func TestDLErrors(t *testing.T) {
	if _, err := DL(0, 3); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := DL(100, 2); err == nil {
		t.Error("d=2 accepted")
	}
}

// The diameter of any graph is at least DL: check against known exact
// diameters (hypercube: N=2^d, degree d, diameter d).
func TestDLIsALowerBoundForHypercubes(t *testing.T) {
	for d := 3; d <= 16; d++ {
		n := math.Pow(2, float64(d))
		dl, err := DL(n, d)
		if err != nil {
			t.Fatal(err)
		}
		if float64(d) < dl {
			t.Errorf("hypercube(%d): diameter %d below claimed lower bound %v", d, d, dl)
		}
	}
}

func TestAlpha(t *testing.T) {
	// A Moore-optimal network would have alpha 1; any real one >= ~1.
	a, err := Alpha(10, 1024, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a <= 1 {
		t.Errorf("alpha = %v, want > 1 for diameter 10 at N=1024,d=3", a)
	}
	if _, err := Alpha(10, 2, 3); err == nil {
		t.Error("DL <= 0 case should error (N=2, d=3 gives tiny bound)")
	}
}

func TestAvgDistanceLowerBound(t *testing.T) {
	// Complete graph K_n: degree n-1, all distances 1; bound must be 1.
	lb, err := AvgDistanceLowerBound(10, 9)
	if err != nil {
		t.Fatal(err)
	}
	if lb != 1 {
		t.Errorf("K10 avg LB = %v, want 1", lb)
	}
	// Ring of 5 nodes, degree 2: distances 1,1,2,2 -> avg 1.5; Moore packing
	// gives the same.
	lb, err = AvgDistanceLowerBound(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lb != 1.5 {
		t.Errorf("ring-5 avg LB = %v, want 1.5", lb)
	}
	// Monotone: more nodes, larger bound.
	prev := 0.0
	for n := 10.0; n <= 1e6; n *= 10 {
		v, err := AvgDistanceLowerBound(n, 4)
		if err != nil {
			t.Fatal(err)
		}
		if v <= prev {
			t.Errorf("avg LB not increasing at N=%v", n)
		}
		prev = v
	}
	if _, err := AvgDistanceLowerBound(1, 3); err != nil == false {
		t.Error("N=1 accepted")
	}
	if _, err := AvgDistanceLowerBound(10, 1); err == nil {
		t.Error("d=1 accepted")
	}
}

func TestDegreeDiameterCost(t *testing.T) {
	if DegreeDiameterCost(4, 9) != 36 {
		t.Error("cost")
	}
}

func TestInterclusterDL(t *testing.T) {
	// N=1e6, clusters of 100, intercluster degree 2: within r hops at most
	// 100·(200^{r+1} − 1)/199 nodes, so the bound is
	// log(1 + 1e6·199/100)/log(200) − 1.
	v, err := InterclusterDL(1e6, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Log(1+1e6*199/100)/math.Log(200) - 1
	if math.Abs(v-want) > 1e-9 {
		t.Errorf("InterclusterDL = %v, want %v", v, want)
	}
	// RS(2,1): N = 6, M = 2, d_i = 1. One hop reaches 2 + 2·2 = 6 nodes,
	// so the bound is exactly 1, the measured intercluster diameter (a
	// count of layer r alone, M·(M·d_i)^r, gave log 3/log 2 = 1.585).
	v, err = InterclusterDL(6, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1) > 1e-9 {
		t.Errorf("RS(2,1) bound = %v, want 1", v)
	}
	// Single cluster: zero intercluster hops needed.
	v, err = InterclusterDL(100, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Errorf("single-cluster bound = %v", v)
	}
	// Chain case M·di = 1.
	v, err = InterclusterDL(10, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v != 9 {
		t.Errorf("chain bound = %v, want 9", v)
	}
	if _, err := InterclusterDL(1, 1, 1); err == nil {
		t.Error("N=1 accepted")
	}
}

func TestInterclusterAvgLowerBound(t *testing.T) {
	// All nodes in one cluster: average 0.
	v, err := InterclusterAvgLowerBound(50, 50, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Errorf("one-cluster avg = %v", v)
	}
	// Sanity: bounded by the diameter bound + 1 and positive for multi-cluster.
	v, err = InterclusterAvgLowerBound(1e6, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	dlv, _ := InterclusterDL(1e6, 100, 2)
	if v <= 0 || v > dlv+1 {
		t.Errorf("avg intercluster LB %v vs diameter LB %v", v, dlv)
	}
	// RR(5,1): N = 720, M = 2, d_i = 1. Layer r holds up to 2·2^r nodes:
	// 4, 8, ..., 256 at r = 1..7 and the last 210 at r = 8, Σ r·layer =
	// 4756 over 719 nodes. The measured average is 7.385; a packing of
	// layer r − layer r−1 new nodes gave 7.591, above it.
	v, err = InterclusterAvgLowerBound(720, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := 4756.0 / 719; math.Abs(v-want) > 1e-9 {
		t.Errorf("RR(5,1) avg bound = %v, want %v", v, want)
	}
	// Chain case.
	v, err = InterclusterAvgLowerBound(10, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-5) > 1e-9 { // distances 1..9 over 9 nodes = 45/9 = 5
		t.Errorf("chain avg = %v, want 5", v)
	}
}

func TestBisectionLowerBound(t *testing.T) {
	v, err := BisectionLowerBound(1, 1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v != 128 {
		t.Errorf("BB LB = %v, want 128", v)
	}
	if _, err := BisectionLowerBound(0, 10, 1); err == nil {
		t.Error("w=0 accepted")
	}
	if _, err := BisectionLowerBound(1, 10, 0); err == nil {
		t.Error("avg=0 accepted")
	}
}

func TestDLDirected(t *testing.T) {
	// Directed ring: N nodes, out-degree... need d >= 2. Complete digraph
	// K_n: out-degree n-1, diameter 1: DL must be <= 1.
	v, err := DLDirected(10, 9)
	if err != nil {
		t.Fatal(err)
	}
	if v > 1 {
		t.Errorf("DLDirected(10,9) = %v > 1 (complete digraph has diameter 1)", v)
	}
	// de Bruijn-like optimum: N = d^m reachable in about m steps.
	v, err = DLDirected(1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v < 9 || v > 10 {
		t.Errorf("DLDirected(1024,2) = %v, want ≈ log2(1025)-1 ≈ 9", v)
	}
	// Lower than the undirected bound at the same (N, d >= 3).
	und, err := DL(1e6, 4)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := DLDirected(1e6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if dir >= und {
		t.Errorf("directed bound %v not below undirected %v", dir, und)
	}
	if _, err := DLDirected(0, 2); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := DLDirected(10, 1); err == nil {
		t.Error("d=1 accepted")
	}
}

func TestAvgDistanceLowerBoundDirected(t *testing.T) {
	// Complete digraph K_10: all distances 1.
	v, err := AvgDistanceLowerBoundDirected(10, 9)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Errorf("K10 directed avg LB = %v", v)
	}
	// Directed bound <= undirected bound (branching d beats d-1).
	for _, d := range []int{2, 3, 5} {
		dir, err := AvgDistanceLowerBoundDirected(1e5, d)
		if err != nil {
			t.Fatal(err)
		}
		und, err := AvgDistanceLowerBound(1e5, d)
		if err != nil {
			t.Fatal(err)
		}
		if dir > und {
			t.Errorf("d=%d: directed avg LB %v above undirected %v", d, dir, und)
		}
	}
	if _, err := AvgDistanceLowerBoundDirected(1, 3); err == nil {
		t.Error("N=1 accepted")
	}
	if _, err := AvgDistanceLowerBoundDirected(10, 1); err == nil {
		t.Error("d=1 accepted")
	}
}
