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
	dil, err := rec.RecursiveDilation()
	if err != nil {
		t.Fatal(err)
	}
	if dil < 1 {
		t.Fatal("dilation")
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
	if len(fs) != 2 {
		t.Fatalf("mirrored fault set %v, want the link and its reverse", fs)
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
	if _, err := NewFaultRoutedTopology(nw, outside); err == nil {
		t.Error("NewFaultRoutedTopology accepted a link outside the network")
	}
}
