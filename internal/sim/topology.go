// Package sim is a synchronous packet-level network simulator for the
// communication tasks the paper argues super Cayley graphs excel at (§1,
// §4.3, §5): multinode broadcast (MNB), total exchange (TE), and random /
// permutation routing, under both the single-port and the all-port
// communication models.
//
// The simulator is deliberately simple and deterministic: time advances in
// synchronous steps; each directed link carries at most one packet per step;
// the single-port model additionally lets a node transmit on at most one of
// its outgoing links per step. Packets are source-routed with the
// ball-arrangement-game solvers (exactly the routing algorithms the paper
// derives), so measured completion times reflect the topology plus its own
// routing algorithm, not an idealized oracle. A permutation network's hops
// come from its graph's factored neighbor table, so it is simulated up to
// k = core.MaxExplicitK.
package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/topology"
)

// Topology is the simulator's view of a network: a uniform-out-degree
// digraph plus a deterministic path oracle.
type Topology interface {
	// Name identifies the instance in reports.
	Name() string
	// NumNodes returns the node count.
	NumNodes() int64
	// Degree returns the uniform out-degree.
	Degree() int
	// Neighbor returns the head of node's link-th outgoing link.
	Neighbor(node int64, link int) int64
	// Path returns the outgoing-link sequence routing src to dst.
	Path(src, dst int64) ([]int, error)
}

// PermTopology adapts a permutation network (any family from
// internal/topology that has a routing algorithm) to the simulator.
type PermTopology struct {
	nw *topology.Network
	// linkOf maps a generator action (as a permutation string) to its link
	// index.
	linkOf map[string]int
	k      int
	tbl    *core.NeighborTable
}

// NewPermTopology wraps nw. It fails for networks without a routing
// algorithm and for k > core.MaxExplicitK.
func NewPermTopology(nw *topology.Network) (*PermTopology, error) {
	if nw.K() > core.MaxExplicitK {
		return nil, fmt.Errorf("sim: NewPermTopology: %s has k=%d, beyond MaxExplicitK=%d", nw.Name(), nw.K(), core.MaxExplicitK)
	}
	genPerms := nw.Graph().GeneratorSet().Perms()
	pt := &PermTopology{
		nw:     nw,
		linkOf: make(map[string]int, len(genPerms)),
		k:      nw.K(),
	}
	for i, gp := range genPerms {
		pt.linkOf[gp.String()] = i
	}
	// Probe the router once so misconfigured networks fail fast.
	if _, err := nw.Route(perm.Identity(pt.k), perm.Identity(pt.k)); err != nil {
		return nil, fmt.Errorf("sim: NewPermTopology: %s has no usable router: %v", nw.Name(), err)
	}
	tbl, err := nw.Graph().EnsureNeighborTable(0)
	if err != nil {
		return nil, fmt.Errorf("sim: NewPermTopology: %v", err)
	}
	pt.tbl = tbl
	return pt, nil
}

func (pt *PermTopology) Name() string    { return pt.nw.Name() }
func (pt *PermTopology) NumNodes() int64 { return pt.nw.Nodes() }
func (pt *PermTopology) Degree() int     { return pt.tbl.Degree() }

func (pt *PermTopology) Neighbor(node int64, link int) int64 { return pt.tbl.At(node, link) }

func (pt *PermTopology) Path(src, dst int64) ([]int, error) {
	s := perm.Unrank(pt.k, src)
	d := perm.Unrank(pt.k, dst)
	moves, err := pt.nw.Route(s, d)
	if err != nil {
		return nil, err
	}
	links := make([]int, len(moves))
	for i, m := range moves {
		idx, ok := pt.linkOf[m.AsPerm(pt.k).String()]
		if !ok {
			return nil, fmt.Errorf("sim: route move %s is not a link of %s", m.Name(), pt.nw.Name())
		}
		links[i] = idx
	}
	return links, nil
}

// HypercubeTopology is a d-dimensional hypercube with dimension-order
// (e-cube) routing.
type HypercubeTopology struct {
	d int
}

// NewHypercubeTopology returns a hypercube simulator topology.
func NewHypercubeTopology(d int) (*HypercubeTopology, error) {
	if d < 1 || d > 30 {
		return nil, fmt.Errorf("sim: NewHypercubeTopology(%d): d out of range 1..30", d)
	}
	return &HypercubeTopology{d: d}, nil
}

func (h *HypercubeTopology) Name() string    { return fmt.Sprintf("hypercube(%d)", h.d) }
func (h *HypercubeTopology) NumNodes() int64 { return 1 << uint(h.d) }
func (h *HypercubeTopology) Degree() int     { return h.d }

func (h *HypercubeTopology) Neighbor(node int64, link int) int64 {
	return node ^ (1 << uint(link))
}

func (h *HypercubeTopology) Path(src, dst int64) ([]int, error) {
	var links []int
	diff := src ^ dst
	for bit := 0; bit < h.d; bit++ {
		if diff&(1<<uint(bit)) != 0 {
			links = append(links, bit)
		}
	}
	return links, nil
}

// TorusTopology is an n-dimensional radix-a torus with per-dimension
// shortest-direction dimension-order routing. Links 2i and 2i+1 are the +
// and - directions of dimension i.
type TorusTopology struct {
	a, n int
}

// NewTorusTopology returns an a^n torus simulator topology.
func NewTorusTopology(a, n int) (*TorusTopology, error) {
	if a < 2 || n < 1 {
		return nil, fmt.Errorf("sim: NewTorusTopology(%d,%d): need a >= 2, n >= 1", a, n)
	}
	nodes := 1.0
	for i := 0; i < n; i++ {
		nodes *= float64(a)
		if nodes > 1<<30 {
			return nil, fmt.Errorf("sim: NewTorusTopology: %d^%d too large", a, n)
		}
	}
	return &TorusTopology{a: a, n: n}, nil
}

func (t *TorusTopology) Name() string { return fmt.Sprintf("torus(%d^%d)", t.a, t.n) }

func (t *TorusTopology) NumNodes() int64 {
	nodes := int64(1)
	for i := 0; i < t.n; i++ {
		nodes *= int64(t.a)
	}
	return nodes
}

func (t *TorusTopology) Degree() int { return 2 * t.n }

func (t *TorusTopology) Neighbor(node int64, link int) int64 {
	dim := link / 2
	base := int64(1)
	for i := 0; i < dim; i++ {
		base *= int64(t.a)
	}
	digit := (node / base) % int64(t.a)
	var nd int64
	if link%2 == 0 {
		nd = (digit + 1) % int64(t.a)
	} else {
		nd = (digit + int64(t.a) - 1) % int64(t.a)
	}
	return node - digit*base + nd*base
}

func (t *TorusTopology) Path(src, dst int64) ([]int, error) {
	var links []int
	base := int64(1)
	for dim := 0; dim < t.n; dim++ {
		sd := (src / base) % int64(t.a)
		dd := (dst / base) % int64(t.a)
		fwd := int((dd - sd + int64(t.a)) % int64(t.a))
		bwd := t.a - fwd
		if fwd == 0 {
			base *= int64(t.a)
			continue
		}
		if fwd <= bwd {
			for i := 0; i < fwd; i++ {
				links = append(links, 2*dim)
			}
		} else {
			for i := 0; i < bwd; i++ {
				links = append(links, 2*dim+1)
			}
		}
		base *= int64(t.a)
	}
	return links, nil
}
