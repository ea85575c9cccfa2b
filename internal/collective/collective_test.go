package collective

import (
	"fmt"
	"testing"

	"repro/internal/perm"
	"repro/internal/sim"
	"repro/internal/topology"
)

func net(t *testing.T, fam topology.Family, l, n int) *topology.Network {
	t.Helper()
	nw, err := topology.New(fam, l, n)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestBFSTreeBasics(t *testing.T) {
	nw := net(t, topology.MS, 2, 2)
	tree, err := BFSTree(nw.Graph(), perm.Identity(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	d, err := nw.Graph().Diameter()
	if err != nil {
		t.Fatal(err)
	}
	if tree.Height != d {
		t.Errorf("BFS tree height %d != diameter %d", tree.Height, d)
	}
	// Children counts: total children = N - 1.
	total := 0
	for _, cs := range tree.Children {
		total += len(cs)
	}
	if int64(total) != nw.Nodes()-1 {
		t.Errorf("tree has %d children links, want %d", total, nw.Nodes()-1)
	}
}

func TestBFSTreeFromNonIdentityRoot(t *testing.T) {
	nw := net(t, topology.CompleteRS, 3, 1)
	root := perm.MustNew([]int{3, 1, 4, 2})
	tree, err := BFSTree(nw.Graph(), root)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if tree.Root != root.Rank() {
		t.Error("root rank mismatch")
	}
}

func TestBFSTreeRejectsDisconnected(t *testing.T) {
	// A star graph restricted to one transposition is disconnected; build a
	// tiny disconnected Cayley graph through the public constructors is not
	// possible, so use the graph engine directly via a star graph with k=2
	// (connected) — instead test the size guard with k = 11.
	nw, err := topology.NewStar(11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BFSTree(nw.Graph(), perm.Identity(11)); err == nil {
		t.Error("k=11 BFS tree should fail the size guard")
	}
}

// TestBroadcastTimes: all-port tree broadcast time = diameter; single-port
// time is between ⌈log2 N⌉ (information-theoretic bound) and N-1.
func TestBroadcastTimes(t *testing.T) {
	for _, tc := range []struct {
		fam  topology.Family
		l, n int
	}{
		{topology.MS, 2, 2},
		{topology.Star, 1, 4},
		{topology.CompleteRS, 3, 1},
		{topology.MR, 2, 2},
	} {
		nw := net(t, tc.fam, tc.l, tc.n)
		tree, err := BFSTree(nw.Graph(), perm.Identity(nw.K()))
		if err != nil {
			t.Fatal(err)
		}
		all := tree.BroadcastTime(sim.AllPort)
		single := tree.BroadcastTime(sim.SinglePort)
		if all != tree.Height {
			t.Errorf("%s: all-port time %d != height %d", nw.Name(), all, tree.Height)
		}
		if single < all {
			t.Errorf("%s: single-port %d < all-port %d", nw.Name(), single, all)
		}
		log2 := 0
		for v := nw.Nodes() - 1; v > 0; v >>= 1 {
			log2++
		}
		if single < log2 {
			t.Errorf("%s: single-port time %d below log2(N) = %d", nw.Name(), single, log2)
		}
		if int64(single) > nw.Nodes()-1 {
			t.Errorf("%s: single-port time %d above N-1", nw.Name(), single)
		}
		t.Logf("%s: height=%d single-port=%d", nw.Name(), tree.Height, single)
	}
}

// TestSinglePortScheduleOnPath: a path graph degenerates the recurrence to
// depth (each node has one child).
func TestSinglePortScheduleKnownShape(t *testing.T) {
	// Binomial-tree behaviour: broadcasting on the 4-cube via its BFS tree
	// should take exactly 4 steps single-port if the tree is a binomial
	// tree. Our BFS tree may be slightly worse but never better than log2 N.
	nw, err := topology.NewStar(4)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BFSTree(nw.Graph(), perm.Identity(4))
	if err != nil {
		t.Fatal(err)
	}
	single := tree.BroadcastTime(sim.SinglePort)
	if single < 5 { // ceil(log2 24) = 5
		t.Errorf("single-port %d below ceil(log2 24)", single)
	}
}

// TestMNBPipelinedBoundVsSimulation: the pipelined tree bound must be an
// upper bound consistent with the flooding simulator's measured MNB time,
// up to the constant-factor slack of flooding (flooding is at most the
// pipelined bound for all-port because every message flows on every link).
func TestMNBPipelinedBoundVsSimulation(t *testing.T) {
	nw := net(t, topology.MS, 2, 2)
	tree, err := BFSTree(nw.Graph(), perm.Identity(5))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := sim.NewPermTopology(nw)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []sim.PortModel{sim.AllPort, sim.SinglePort} {
		bound := MNBPipelinedBound(tree, model, nw.Degree())
		res, err := sim.RunBroadcast(topo, model, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		// The flood must respect the trivial lower bound and the tree bound
		// should not be absurdly below the flood's measurement (sanity of
		// both models).
		lb := sim.MNBLowerBound(nw.Nodes(), nw.Degree(), model)
		if int64(res.Steps) < lb {
			t.Errorf("%v: flood %d below lower bound %d", model, res.Steps, lb)
		}
		if bound < lb {
			t.Errorf("%v: pipelined bound %d below lower bound %d", model, bound, lb)
		}
		t.Logf("%v: lower=%d flood=%d pipelined-bound=%d", model, lb, res.Steps, bound)
	}
}

func TestSimulateTreeMNB(t *testing.T) {
	nw := net(t, topology.MS, 2, 2)
	topo, err := sim.NewPermTopology(nw)
	if err != nil {
		t.Fatal(err)
	}
	n := nw.Nodes()
	for _, model := range []sim.PortModel{sim.AllPort, sim.SinglePort} {
		res, err := SimulateTreeMNB(nw.Graph(), model, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Each message crosses exactly N-1 tree edges.
		if res.TotalHops != n*(n-1) {
			t.Fatalf("%v: hops %d, want %d", model, res.TotalHops, n*(n-1))
		}
		lb := sim.MNBLowerBound(n, nw.Degree(), model)
		if int64(res.Steps) < lb {
			t.Errorf("%v: tree MNB %d below lower bound %d", model, res.Steps, lb)
		}
		flood, err := sim.RunBroadcast(topo, model, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Tree MNB moves ~d× fewer messages than flooding.
		if res.TotalHops >= flood.TotalHops {
			t.Errorf("%v: tree hops %d not below flood hops %d", model, res.TotalHops, flood.TotalHops)
		}
		// Vertex symmetry should keep the tree loads reasonably balanced.
		if res.LoadGini > 0.6 {
			t.Errorf("%v: tree-MNB load Gini %.3f suspiciously unbalanced", model, res.LoadGini)
		}
		t.Logf("%v: tree MNB %d steps (flood %d, lower bound %d), hops %d (flood %d), gini %.3f",
			model, res.Steps, flood.Steps, lb, res.TotalHops, flood.TotalHops, res.LoadGini)
	}
}

func TestSimulateTreeMNBGuards(t *testing.T) {
	nw := net(t, topology.MS, 2, 2)
	if _, err := SimulateTreeMNB(nw.Graph(), sim.AllPort, 3); err == nil {
		t.Error("tiny maxSteps should time out")
	}
	big, err := topology.NewStar(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SimulateTreeMNB(big.Graph(), sim.AllPort, 0); err == nil {
		t.Error("oversized instance accepted")
	}
}

// Validate checks the tree spans the graph consistently.
func (t *Tree) Validate() error {
	n := int64(len(t.Parent))
	seen := int64(0)
	for v := int64(0); v < n; v++ {
		if v == t.Root {
			if t.Parent[v] != -1 {
				return fmt.Errorf("collective: root has parent %d", t.Parent[v])
			}
			seen++
			continue
		}
		p := t.Parent[v]
		if p < 0 || p >= n {
			return fmt.Errorf("collective: node %d has invalid parent %d", v, p)
		}
		if t.Depth[v] != t.Depth[p]+1 {
			return fmt.Errorf("collective: node %d depth %d, parent depth %d", v, t.Depth[v], t.Depth[p])
		}
		seen++
	}
	if seen != n {
		return fmt.Errorf("collective: tree covers %d of %d nodes", seen, n)
	}
	return nil
}
