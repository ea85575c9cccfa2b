// Package collective implements structured collective-communication
// algorithms on Cayley graphs: spanning-tree single-node broadcast and its
// scheduling under the single-port and all-port models. Together with the
// flooding simulator in internal/sim it covers the multinode-broadcast (MNB)
// claims of §1 and §5: MNB completion on a vertex-symmetric network is
// bounded by pipelining N single-node broadcasts over shifted spanning
// trees, and the all-port broadcast time of any node equals the graph
// eccentricity (= diameter).
package collective

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/sim"
)

// Tree is a spanning tree of a graph, stored as parent links over node
// ranks.
type Tree struct {
	Root int64
	// Parent[v] is v's parent rank; Parent[Root] = -1.
	Parent []int64
	// Depth[v] is the hop distance from the root.
	Depth []int32
	// Children lists each node's children, ordered by subtree size
	// (largest first) — the order optimal single-port scheduling serves
	// them in.
	Children map[int64][]int64
	// Height is the tree height (= root eccentricity for a BFS tree).
	Height int
}

// BFSTree builds a breadth-first spanning tree of a Cayley graph from the
// given root. For a vertex-symmetric graph its height equals the diameter.
func BFSTree(g *core.Graph, root perm.Perm) (*Tree, error) {
	res, err := g.BFS(root)
	if err != nil {
		return nil, err
	}
	if res.Reachable != g.Order() {
		return nil, fmt.Errorf("collective: BFSTree: graph not connected from %v", root)
	}
	k := g.K()
	n := g.Order()
	parent := make([]int64, n)
	for i := range parent {
		parent[i] = -1
	}
	// Rebuild parents: for each node at distance d > 0, pick the first
	// in-neighbor at distance d-1. In-neighbors of v are v∘g⁻¹; enumerate by
	// applying each generator's inverse.
	set := g.GeneratorSet()
	invPerms := make([]perm.Perm, set.Len())
	for i, gg := range set.Generators() {
		invPerms[i] = gg.Inverse(k).AsPerm(k)
	}
	cur := make(perm.Perm, k)
	pre := make(perm.Perm, k)
	scratch := make([]int, k)
	children := make(map[int64][]int64)
	for v := int64(0); v < n; v++ {
		d := res.Dist.At(v)
		if d <= 0 {
			continue
		}
		perm.UnrankInto(k, v, cur, scratch)
		for _, ip := range invPerms {
			cur.ComposeInto(ip, pre)
			u := pre.Rank()
			if res.Dist.At(u) == d-1 {
				parent[v] = u
				children[u] = append(children[u], v)
				break
			}
		}
		if parent[v] == -1 {
			return nil, fmt.Errorf("collective: BFSTree: node %d at depth %d has no parent", v, d)
		}
	}
	t := &Tree{
		Root:     root.Rank(),
		Parent:   parent,
		Depth:    res.Dist.Int32Slice(),
		Children: children,
		Height:   res.Eccentricity,
	}
	t.sortChildrenBySubtree()
	return t, nil
}

// sortChildrenBySubtree orders every child list by decreasing subtree size,
// the order that minimizes single-port broadcast time on a fixed tree.
func (t *Tree) sortChildrenBySubtree() {
	size := make(map[int64]int64, len(t.Parent))
	// Process nodes by decreasing depth so children are done before parents.
	order := make([]int64, 0, len(t.Parent))
	for v := range t.Parent {
		order = append(order, int64(v))
	}
	sort.Slice(order, func(i, j int) bool { return t.Depth[order[i]] > t.Depth[order[j]] })
	for _, v := range order {
		s := int64(1)
		for _, c := range t.Children[v] {
			s += size[c]
		}
		size[v] = s
	}
	for v := range t.Children {
		cs := t.Children[v]
		sort.Slice(cs, func(i, j int) bool {
			if size[cs[i]] != size[cs[j]] {
				return size[cs[i]] > size[cs[j]]
			}
			return cs[i] < cs[j] // deterministic tie-break
		})
	}
}

// BroadcastTime returns the completion time of a single-node broadcast from
// the root along the tree. All-port: every informed node forwards to all
// children simultaneously, so the time is the tree height. Single-port:
// each informed node serves one child per step, largest subtree first;
// computed by the classical recurrence
//
//	T(v) = max over children c (ordered) of (index(c) + 1 + T(c)).
func (t *Tree) BroadcastTime(model sim.PortModel) int {
	if model == sim.AllPort {
		return t.Height
	}
	memo := make(map[int64]int, len(t.Parent))
	// Bottom-up over decreasing depth.
	order := make([]int64, 0, len(t.Parent))
	for v := range t.Parent {
		order = append(order, int64(v))
	}
	sort.Slice(order, func(i, j int) bool { return t.Depth[order[i]] > t.Depth[order[j]] })
	for _, v := range order {
		best := 0
		for i, c := range t.Children[v] {
			if tt := i + 1 + memo[c]; tt > best {
				best = tt
			}
		}
		memo[v] = best
	}
	return memo[t.Root]
}

// MNBPipelinedBound returns an upper bound on multinode-broadcast time
// obtained by pipelining the N single-node broadcasts over the same tree
// shape: each of the N messages needs T_tree steps and a node receives at
// most one message per step per incoming link, so
//
//	T_MNB <= T_tree + (N - 1) / inPorts
//
// with inPorts = 1 (single-port) or the in-degree (all-port).
func MNBPipelinedBound(t *Tree, model sim.PortModel, inDegree int) int64 {
	n := int64(len(t.Parent))
	single := int64(t.BroadcastTime(model))
	if model == sim.SinglePort || inDegree < 1 {
		return single + (n - 1)
	}
	return single + (n-1+int64(inDegree)-1)/int64(inDegree)
}
