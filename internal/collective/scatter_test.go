package collective

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/perm"
	"repro/internal/sim"
	"repro/internal/topology"
)

func TestScatterTimeBounds(t *testing.T) {
	for _, tc := range []struct {
		fam  topology.Family
		l, n int
	}{
		{topology.MS, 2, 2},
		{topology.Star, 1, 4},
		{topology.CompleteRS, 3, 1},
	} {
		nw := net(t, tc.fam, tc.l, tc.n)
		tree, err := BFSTree(nw.Graph(), perm.Identity(nw.K()))
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range []sim.PortModel{sim.AllPort, sim.SinglePort} {
			got, err := ScatterTime(tree, model)
			if err != nil {
				t.Fatalf("%s %v: %v", nw.Name(), model, err)
			}
			lb := ScatterLowerBound(tree, model, nw.Degree())
			if int64(got) < lb {
				t.Errorf("%s %v: scatter %d below lower bound %d", nw.Name(), model, got, lb)
			}
			// Trivial upper bound: one message per step through the root.
			if int64(got) > nw.Nodes()+int64(tree.Height) {
				t.Errorf("%s %v: scatter %d above N+height", nw.Name(), model, got)
			}
			t.Logf("%s %v: scatter %d (lower bound %d)", nw.Name(), model, got, lb)
		}
	}
}

// TestScatterSinglePortIsRootBound: under single-port the root is the
// bottleneck, so the time is close to N-1.
func TestScatterSinglePortIsRootBound(t *testing.T) {
	nw := net(t, topology.MS, 2, 2)
	tree, err := BFSTree(nw.Graph(), perm.Identity(5))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ScatterTime(tree, sim.SinglePort)
	if err != nil {
		t.Fatal(err)
	}
	n := int(nw.Nodes())
	if got < n-1 {
		t.Errorf("single-port scatter %d below N-1 = %d", got, n-1)
	}
	if got > n-1+tree.Height {
		t.Errorf("single-port scatter %d above N-1+height = %d", got, n-1+tree.Height)
	}
}

// TestScatterAllPortNearBandwidthBound: with farthest-first scheduling the
// all-port scatter should land within a small factor of the max(bandwidth,
// depth) bound.
func TestScatterAllPortNearBandwidthBound(t *testing.T) {
	nw := net(t, topology.CompleteRS, 3, 1)
	tree, err := BFSTree(nw.Graph(), perm.Identity(4))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ScatterTime(tree, sim.AllPort)
	if err != nil {
		t.Fatal(err)
	}
	lb := ScatterLowerBound(tree, sim.AllPort, nw.Degree())
	if int64(got) > 3*lb {
		t.Errorf("all-port scatter %d more than 3x the lower bound %d", got, lb)
	}
}

// A single-node scatter (one-to-all personalized communication): the root
// holds N-1 distinct messages, one per other node. Gather is its
// time-reversal and has identical completion time on an undirected
// network, so one analysis covers both.
//
// Lower bounds: the root must push N-1 messages through its ports
// (⌈(N-1)/ports⌉ steps) and the farthest node needs at least depth steps.
// ScatterLowerBound returns max(⌈(N-1)/ports⌉, height).
func ScatterLowerBound(t *Tree, model sim.PortModel, outDegree int) int64 {
	n := int64(len(t.Parent))
	ports := int64(1)
	if model == sim.AllPort && outDegree > 1 {
		ports = int64(outDegree)
	}
	bw := (n - 1 + ports - 1) / ports
	if int64(t.Height) > bw {
		return int64(t.Height)
	}
	return bw
}

// ScatterTime computes the completion time of a scatter along the tree with
// greedy scheduling: every node forwards, each step, the queued message
// whose destination subtree is deepest (farthest-first), on the link toward
// it; single-port nodes send one message per step, all-port nodes one per
// child link per step.
func ScatterTime(t *Tree, model sim.PortModel) (int, error) {
	n := int64(len(t.Parent))
	if n == 0 {
		return 0, fmt.Errorf("collective: ScatterTime: empty tree")
	}
	// For each node, the child whose subtree contains a given destination:
	// climb from the destination to the root once, recording the path.
	// Message m (destination m) travels root -> m along tree edges.
	// Per-node queues of pending messages, keyed by next-hop child.
	depth := t.Depth
	// remaining[v] = messages queued at v (their destinations).
	queues := make(map[int64][]int64, 1)
	var dests []int64
	for v := int64(0); v < n; v++ {
		if v != t.Root {
			dests = append(dests, v)
		}
	}
	// Farthest-first service order.
	sort.Slice(dests, func(i, j int) bool {
		if depth[dests[i]] != depth[dests[j]] {
			return depth[dests[i]] > depth[dests[j]]
		}
		return dests[i] < dests[j]
	})
	queues[t.Root] = dests
	// nextHop(v, dst): the child of v on the path to dst. Precompute parent
	// chains lazily.
	nextHop := func(v, dst int64) int64 {
		cur := dst
		for t.Parent[cur] != v {
			cur = t.Parent[cur]
			if cur < 0 {
				panic("collective: ScatterTime: destination not under node")
			}
		}
		return cur
	}
	delivered := int64(0)
	for step := 1; ; step++ {
		if step > int(n)*2+t.Height+2 {
			return 0, fmt.Errorf("collective: ScatterTime: no convergence")
		}
		type move struct {
			to  int64
			msg int64
		}
		var moves []move
		for v, q := range queues {
			if len(q) == 0 {
				continue
			}
			switch model {
			case sim.SinglePort:
				// Send the first (farthest) message.
				moves = append(moves, move{to: nextHop(v, q[0]), msg: q[0]})
				queues[v] = q[1:]
			case sim.AllPort:
				// One message per distinct child link.
				usedLink := map[int64]bool{}
				var rest []int64
				for _, m := range q {
					h := nextHop(v, m)
					if usedLink[h] {
						rest = append(rest, m)
						continue
					}
					usedLink[h] = true
					moves = append(moves, move{to: h, msg: m})
				}
				queues[v] = rest
			}
		}
		// Deterministic arrival order.
		sort.Slice(moves, func(i, j int) bool {
			if moves[i].to != moves[j].to {
				return moves[i].to < moves[j].to
			}
			return moves[i].msg < moves[j].msg
		})
		for _, mv := range moves {
			if mv.to == mv.msg {
				delivered++
				continue
			}
			// Keep farthest-first order within the receiving queue.
			q := queues[mv.to]
			idx := sort.Search(len(q), func(i int) bool {
				if depth[q[i]] != depth[mv.msg] {
					return depth[q[i]] < depth[mv.msg]
				}
				return q[i] >= mv.msg
			})
			q = append(q, 0)
			copy(q[idx+1:], q[idx:])
			q[idx] = mv.msg
			queues[mv.to] = q
		}
		if delivered == n-1 {
			return step, nil
		}
	}
}
