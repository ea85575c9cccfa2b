package scg

import "testing"

func TestExtensionNetworksFacade(t *testing.T) {
	sub, err := NewRotationSubsetStar(5, 1, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	src, dst := RandomNode(6, 4), IdentityNode(6)
	moves, err := sub.Route(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.VerifyRoute(src, dst, moves); err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecursiveMS(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	dil, err := RecursiveDilation(rec)
	if err != nil {
		t.Fatal(err)
	}
	if dil < 1 {
		t.Fatal("dilation")
	}
	word, err := RotationExpansion(7, 4, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, e := range word {
		sum += e
	}
	if sum%7 != 4 {
		t.Fatalf("expansion %v", word)
	}
}

func TestCollectiveFacade(t *testing.T) {
	nw, err := NewMacroStar(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := NewBroadcastTree(nw, IdentityNode(5))
	if err != nil {
		t.Fatal(err)
	}
	d, err := nw.Graph().Diameter()
	if err != nil {
		t.Fatal(err)
	}
	if tree.Height != d {
		t.Fatalf("tree height %d vs diameter %d", tree.Height, d)
	}
	bound := MNBPipelinedBound(tree, AllPort, nw.Degree())
	if bound <= int64(d) {
		t.Fatalf("pipelined bound %d too small", bound)
	}
}

func TestFaultFacade(t *testing.T) {
	nw, err := NewMacroStar(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := MirrorFaultsUndirected(nw, NewFaultSet(FaultLink{Node: 3, Gen: 1}))
	if err != nil {
		t.Fatal(err)
	}
	prof, err := FaultBFS(nw, fs, IdentityNode(5))
	if err != nil {
		t.Fatal(err)
	}
	if !prof.Connected {
		t.Fatal("single fault disconnected MS(2,2)")
	}
	tr, err := RandomFaultTrials(nw, 2, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Runs != 10 {
		t.Fatal("trial count")
	}
	// A link outside the network is an error, not silently ignored.
	outside := NewFaultSet(FaultLink{Node: nw.Nodes(), Gen: 0})
	if _, err := FaultBFS(nw, outside, IdentityNode(5)); err == nil {
		t.Error("FaultBFS accepted a link outside the network")
	}
	if _, err := NewFaultRoutedTopology(nw, outside); err == nil {
		t.Error("NewFaultRoutedTopology accepted a link outside the network")
	}
}

func TestThroughputFacade(t *testing.T) {
	th, err := PinLimitedThroughput(10, 5)
	if err != nil || th != 2 {
		t.Fatalf("throughput %v %v", th, err)
	}
	if _, err := DirectedDiameterLowerBound(5040, 3); err != nil {
		t.Fatal(err)
	}
	rows, err := AvgDistanceTable(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 || RenderAvgDistanceTable(rows) == "" {
		t.Fatal("avg distance table")
	}
}

func TestScatterAndGrowthFacade(t *testing.T) {
	nw, err := NewMacroStar(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := NewBroadcastTree(nw, IdentityNode(5))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ScatterTime(tree, SinglePort)
	if err != nil {
		t.Fatal(err)
	}
	if int64(got) < ScatterLowerBound(tree, SinglePort, nw.Degree()) {
		t.Fatalf("scatter %d below bound", got)
	}
	rows, err := DiameterGrowthTable(6, []Family{StarFamily, MSFamily})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || RenderGrowthTable(rows) == "" {
		t.Fatal("growth table")
	}
}

func TestRingEmbeddingFacade(t *testing.T) {
	cycle, err := SJTCycle(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cycle) != 120 {
		t.Fatalf("SJT cycle length %d", len(cycle))
	}
	starMoves, err := EmulateBubbleOnStar(cycle)
	if err != nil {
		t.Fatal(err)
	}
	if len(starMoves) > 3*len(cycle) {
		t.Fatal("dilation above 3")
	}
	nw, err := NewStarGraph(4)
	if err != nil {
		t.Fatal(err)
	}
	ham, err := HamiltonianCycle(nw, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ham) != 24 {
		t.Fatalf("Hamiltonian cycle length %d", len(ham))
	}
}
