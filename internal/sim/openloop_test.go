package sim

import (
	"testing"

	"repro/internal/topology"
)

func TestRunOpenLoopBasics(t *testing.T) {
	pt := permTopo(t, topology.MS, 2, 2)
	res, err := RunOpenLoop(pt, 0.05, 200, AllPort, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected == 0 {
		t.Fatal("nothing injected")
	}
	if res.Delivered+res.Backlog != res.Injected {
		t.Fatalf("conservation: injected %d != delivered %d + backlog %d",
			res.Injected, res.Delivered, res.Backlog)
	}
	if res.Throughput <= 0 || res.Throughput > res.Offered+0.01 {
		t.Fatalf("throughput %v vs offered %v", res.Throughput, res.Offered)
	}
	if res.MeanLatency < 1 {
		t.Fatalf("latency %v < 1", res.MeanLatency)
	}
	if res.String() == "" {
		t.Error("String")
	}
}

func TestRunOpenLoopValidation(t *testing.T) {
	pt := permTopo(t, topology.MS, 2, 2)
	if _, err := RunOpenLoop(pt, 0, 10, AllPort, 1, nil); err == nil {
		t.Error("rate 0 accepted")
	}
	if _, err := RunOpenLoop(pt, 1.5, 10, AllPort, 1, nil); err == nil {
		t.Error("rate > 1 accepted")
	}
	if _, err := RunOpenLoop(pt, 0.1, 0, AllPort, 1, nil); err == nil {
		t.Error("steps 0 accepted")
	}
}

// TestLatencyGrowsWithLoad: at low load latency ~ average distance; near
// saturation latency must be higher.
func TestLatencyGrowsWithLoad(t *testing.T) {
	pt := permTopo(t, topology.MS, 2, 2)
	low, err := RunOpenLoop(pt, 0.02, 300, SinglePort, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	high, err := RunOpenLoop(pt, 0.9, 300, SinglePort, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if high.MeanLatency <= low.MeanLatency {
		t.Errorf("latency did not grow with load: %.2f at 0.02 vs %.2f at 0.9",
			low.MeanLatency, high.MeanLatency)
	}
	// Under overload throughput must fall below offered (queueing backlog).
	if high.Throughput >= high.Offered {
		t.Errorf("overloaded throughput %v >= offered %v", high.Throughput, high.Offered)
	}
}

// TestSaturationOrderingFollowsAvgDistance: the §4.2 claim in simulation —
// at equal per-node link counts... here we simply check that the
// lower-average-distance hypercube sustains more per-node throughput than a
// long thin torus of similar size (64 nodes each).
func TestSaturationOrderingFollowsAvgDistance(t *testing.T) {
	hyp, err := NewHypercubeTopology(6) // 64 nodes, avg dist 3
	if err != nil {
		t.Fatal(err)
	}
	tor, err := NewTorusTopology(8, 2) // 64 nodes, avg dist 4
	if err != nil {
		t.Fatal(err)
	}
	hc, err := SaturationThroughput(hyp, 150, AllPort, 5)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := SaturationThroughput(tor, 150, AllPort, 5)
	if err != nil {
		t.Fatal(err)
	}
	if hc <= tc {
		t.Errorf("hypercube saturation %.4f not above torus %.4f", hc, tc)
	}
	t.Logf("saturation throughput: hypercube(6)=%.4f torus(8^2)=%.4f", hc, tc)
}
