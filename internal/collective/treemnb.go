package collective

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/perm"
	"repro/internal/sim"
)

// TreeMNBResult reports a simulated multinode broadcast in which every
// node's message travels along that node's own translate of a base BFS
// spanning tree (vertex symmetry gives every source an isomorphic tree).
// Compared to flooding, each message crosses exactly N-1 links, so the
// total traffic is N(N-1) instead of ~N²·d — this is the structured MNB
// whose asymptotic optimality §5 asserts.
type TreeMNBResult struct {
	Steps     int
	TotalHops int64
	// MaxLinkLoad and Gini quantify how evenly the N translated trees share
	// the physical links.
	MaxLinkLoad int64
	LoadGini    float64
}

// SimulateTreeMNB runs the translated-tree MNB on a permutation network's
// Cayley graph (k <= 7 keeps the O(N²) message state small). Each directed
// link carries at most one message per step; single-port nodes additionally
// send on at most one link per step.
func SimulateTreeMNB(g *core.Graph, model sim.PortModel, maxSteps int) (*TreeMNBResult, error) {
	k := g.K()
	n := g.Order()
	if n > 1<<12 {
		return nil, fmt.Errorf("collective: SimulateTreeMNB: N=%d too large", n)
	}
	if maxSteps <= 0 {
		maxSteps = 1 << 20
	}
	base, err := BFSTree(g, perm.Identity(k))
	if err != nil {
		return nil, err
	}
	// Precompute node permutations and inverses by rank.
	perms := make([]perm.Perm, n)
	for r := int64(0); r < n; r++ {
		perms[r] = perm.Unrank(k, r)
	}
	invRank := make([]int64, n)
	for r := int64(0); r < n; r++ {
		invRank[r] = perms[r].Inverse().Rank()
	}
	tbl, err := g.EnsureNeighborTable(0)
	if err != nil {
		return nil, err
	}
	deg := tbl.Degree()
	mul := func(a, b int64) int64 { // rank of perms[a] ∘ perms[b]
		return perms[a].Compose(perms[b]).Rank()
	}
	// childrenOf(s, u): children of node u in the tree rooted at s:
	// s ∘ children_base(s⁻¹ ∘ u).
	childrenOf := func(s, u int64) []int64 {
		baseNode := mul(invRank[s], u)
		baseKids := base.Children[baseNode]
		if len(baseKids) == 0 {
			return nil
		}
		kids := make([]int64, len(baseKids))
		for i, c := range baseKids {
			kids[i] = mul(s, c)
		}
		return kids
	}
	// queues[u][link] = pending message sources.
	queues := make([][][]int64, n)
	for i := range queues {
		queues[i] = make([][]int64, deg)
	}
	loads := make([][]int64, n)
	for i := range loads {
		loads[i] = make([]int64, deg)
	}
	res := &TreeMNBResult{}
	remaining := n * (n - 1)
	enqueue := func(u, msg int64) {
		for _, c := range childrenOf(msg, u) {
			li := 0
			for li < deg && tbl.At(u, li) != c {
				li++
			}
			if li == deg {
				panic("collective: SimulateTreeMNB: tree edge is not a graph link")
			}
			queues[u][li] = append(queues[u][li], msg)
		}
	}
	for s := int64(0); s < n; s++ {
		enqueue(s, s)
	}
	rot := make([]int, n)
	type arrival struct {
		node, msg int64
	}
	var arrivals []arrival
	for step := 0; remaining > 0; step++ {
		if step >= maxSteps {
			return nil, fmt.Errorf("collective: SimulateTreeMNB: %d informs missing after %d steps", remaining, maxSteps)
		}
		arrivals = arrivals[:0]
		for u := int64(0); u < n; u++ {
			q := queues[u]
			send := func(link int) {
				msg := q[link][0]
				q[link] = q[link][1:]
				loads[u][link]++
				res.TotalHops++
				arrivals = append(arrivals, arrival{node: tbl.At(u, link), msg: msg})
			}
			switch model {
			case sim.AllPort:
				for link := 0; link < deg; link++ {
					if len(q[link]) > 0 {
						send(link)
					}
				}
			case sim.SinglePort:
				for probe := 0; probe < deg; probe++ {
					link := (rot[u] + probe) % deg
					if len(q[link]) > 0 {
						send(link)
						rot[u] = (link + 1) % deg
						break
					}
				}
			}
		}
		// Deterministic processing order.
		sort.Slice(arrivals, func(i, j int) bool {
			if arrivals[i].node != arrivals[j].node {
				return arrivals[i].node < arrivals[j].node
			}
			return arrivals[i].msg < arrivals[j].msg
		})
		for _, a := range arrivals {
			remaining--
			enqueue(a.node, a.msg)
		}
		res.Steps = step + 1
	}
	flat := make([]int64, 0, n*int64(deg))
	for u := int64(0); u < n; u++ {
		for link := 0; link < deg; link++ {
			if loads[u][link] > res.MaxLinkLoad {
				res.MaxLinkLoad = loads[u][link]
			}
			flat = append(flat, loads[u][link])
		}
	}
	res.LoadGini = metrics.LoadGini(flat)
	return res, nil
}
