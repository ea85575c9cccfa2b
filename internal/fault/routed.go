package fault

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/sim"
)

// RoutedTopology adapts a faulted Cayley graph to the packet simulator:
// paths are exact shortest paths in the surviving graph, so the simulator
// measures end-to-end behaviour of fault-aware minimal routing. Only links
// absent from the fault set exist. Each source's distances come from one
// masked search on core's engine and are cached, one byte per state, up
// to distCacheBytes.
type RoutedTopology struct {
	g         *core.Graph
	tbl       *core.NeighborTable
	cut       [][]uint64  // the failed links, as BFSWithout's cut masks
	inv       []perm.Perm // each generator's inverse, for walking back
	dist      map[int64]core.DistTable
	distBytes int64 // the tables' bytes in dist
}

// distCacheBytes bounds the distance tables a RoutedTopology keeps. It
// holds every source of a graph with k <= 7 (5,040 tables of 5,040 B),
// and 92 of MS(2,4)'s 362,880 B tables; a table past it evicts others,
// in map order, until it fits. Paths do not depend on what is cached.
const distCacheBytes = 32 << 20

// NewRoutedTopology wraps graph g with the given fault set. A link outside
// g is an error. The surviving graph should keep every node reachable
// from every other; an unreachable destination surfaces as a Path error.
func NewRoutedTopology(g *core.Graph, faults Set) (*RoutedTopology, error) {
	tbl, err := g.EnsureNeighborTable(0)
	if err != nil {
		return nil, fmt.Errorf("fault: NewRoutedTopology: %w", err)
	}
	cut, err := cutMasks(g, faults)
	if err != nil {
		return nil, fmt.Errorf("fault: NewRoutedTopology: %w", err)
	}
	inv := g.GeneratorSet().Perms() // a fresh slice: invert in place
	for j, gp := range inv {
		inv[j] = gp.Inverse()
	}
	return &RoutedTopology{
		g:    g,
		tbl:  tbl,
		cut:  cut,
		inv:  inv,
		dist: make(map[int64]core.DistTable),
	}, nil
}

// Name implements sim.Topology.
func (rt *RoutedTopology) Name() string { return rt.g.Name() + "+faults" }

// NumNodes implements sim.Topology.
func (rt *RoutedTopology) NumNodes() int64 { return rt.g.Order() }

// Degree implements sim.Topology (failed links still occupy their index;
// they simply never appear in paths).
func (rt *RoutedTopology) Degree() int { return rt.g.GeneratorSet().Len() }

// Neighbor implements sim.Topology.
func (rt *RoutedTopology) Neighbor(node int64, link int) int64 { return rt.tbl.At(node, link) }

// Path returns a shortest surviving path from src to dst as link indices.
// It walks back from dst: at each node, the lowest generator whose
// predecessor is one hop closer to src over a link that did not fail.
func (rt *RoutedTopology) Path(src, dst int64) ([]int, error) {
	if src == dst {
		return nil, nil
	}
	k := rt.g.K()
	dist, ok := rt.dist[src]
	if !ok {
		res, err := rt.g.BFSWithout(perm.Unrank(k, src), rt.cut)
		if err != nil {
			return nil, err
		}
		dist = res.Dist
		for s, d := range rt.dist {
			if rt.distBytes+dist.Bytes() <= distCacheBytes {
				break
			}
			delete(rt.dist, s)
			rt.distBytes -= d.Bytes()
		}
		rt.dist[src] = dist
		rt.distBytes += dist.Bytes()
	}
	d := dist.At(dst)
	if d < 0 {
		return nil, fmt.Errorf("fault: Path: %d unreachable from %d under faults", dst, src)
	}
	path := make([]int, d)
	cur, pred := perm.Unrank(k, dst), make(perm.Perm, k)
	for ; d > 0; d-- {
		for j, gi := range rt.inv {
			cur.ComposeInto(gi, pred)
			r := pred.Rank()
			if c := rt.cut[j]; dist.At(r) == d-1 && (c == nil || c[r>>6]>>(r&63)&1 == 0) {
				path[d-1] = j
				cur, pred = pred, cur
				break
			}
		}
	}
	return path, nil
}

// Interface compliance.
var _ sim.Topology = (*RoutedTopology)(nil)
