package fault

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// RoutedTopology adapts a faulted Cayley graph to the packet simulator:
// paths are exact shortest paths in the surviving graph (computed by BFS
// per source and cached), so the simulator measures end-to-end behaviour of
// fault-aware minimal routing. Only links absent from the fault set exist.
type RoutedTopology struct {
	g      *core.Graph
	faults Set
	name   string
	tbl    *core.NeighborTable
	// pathCache[src] holds predecessor data from one BFS.
	pathCache map[int64]*bfsPaths
}

type bfsPaths struct {
	pred []int64
	via  []int8
}

// NewRoutedTopology wraps graph g with the given fault set. The surviving
// graph must keep every node reachable from every other (checked lazily per
// source; unreachable destinations surface as Path errors).
func NewRoutedTopology(g *core.Graph, faults Set) (*RoutedTopology, error) {
	tbl, err := g.EnsureNeighborTable(0)
	if err != nil {
		return nil, fmt.Errorf("fault: NewRoutedTopology: %w", err)
	}
	return &RoutedTopology{
		g:         g,
		faults:    faults,
		name:      g.Name() + "+faults",
		tbl:       tbl,
		pathCache: make(map[int64]*bfsPaths),
	}, nil
}

// Name implements sim.Topology.
func (rt *RoutedTopology) Name() string { return rt.name }

// NumNodes implements sim.Topology.
func (rt *RoutedTopology) NumNodes() int64 { return rt.g.Order() }

// Degree implements sim.Topology (failed links still occupy their index;
// they simply never appear in paths).
func (rt *RoutedTopology) Degree() int { return rt.g.GeneratorSet().Len() }

// Neighbor implements sim.Topology.
func (rt *RoutedTopology) Neighbor(node int64, link int) int64 { return rt.tbl.At(node, link) }

// Path returns a shortest surviving path from src to dst as link indices.
func (rt *RoutedTopology) Path(src, dst int64) ([]int, error) {
	if src == dst {
		return nil, nil
	}
	paths, err := rt.bfsFrom(src)
	if err != nil {
		return nil, err
	}
	if paths.pred[dst] < 0 {
		return nil, fmt.Errorf("fault: Path: %d unreachable from %d under faults", dst, src)
	}
	var rev []int
	for cur := dst; cur != src; cur = paths.pred[cur] {
		rev = append(rev, int(paths.via[cur]))
	}
	out := make([]int, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out, nil
}

func (rt *RoutedTopology) bfsFrom(src int64) (*bfsPaths, error) {
	if p, ok := rt.pathCache[src]; ok {
		return p, nil
	}
	n := rt.g.Order()
	pred := make([]int64, n)
	via := make([]int8, n)
	for i := range pred {
		pred[i] = -1
	}
	pred[src] = src
	queue := []int64{src}
	for head := 0; head < len(queue); head++ {
		r := queue[head]
		for gi := 0; gi < rt.tbl.Degree(); gi++ {
			if rt.faults[Link{Node: r, Gen: gi}] {
				continue
			}
			nr := rt.tbl.At(r, gi)
			if pred[nr] < 0 {
				pred[nr] = r
				via[nr] = int8(gi)
				queue = append(queue, nr)
			}
		}
	}
	p := &bfsPaths{pred: pred, via: via}
	rt.pathCache[src] = p
	return p, nil
}

// Interface compliance.
var _ sim.Topology = (*RoutedTopology)(nil)
