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
	"math/bits"

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
	moves, err := pt.nw.Route(perm.Unrank(pt.k, src), perm.Unrank(pt.k, dst))
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
	for diff := uint64(src ^ dst); diff != 0; diff &= diff - 1 {
		links = append(links, bits.TrailingZeros64(diff))
	}
	return links, nil
}

// TorusTopology is an n-dimensional radix-a torus with per-dimension
// shortest-direction dimension-order routing. Links 2i and 2i+1 are the +
// and - directions of dimension i.
type TorusTopology struct {
	a, n int
	base []int64 // base[i] = a^i, the weight of digit i; base[n] is the node count
}

// NewTorusTopology returns an a^n torus simulator topology.
func NewTorusTopology(a, n int) (*TorusTopology, error) {
	if a < 2 || n < 1 {
		return nil, fmt.Errorf("sim: NewTorusTopology(%d,%d): need a >= 2, n >= 1", a, n)
	}
	t := &TorusTopology{a: a, n: n, base: []int64{1}}
	for i := 0; i < n; i++ {
		if t.base[i] > 1<<30/int64(a) {
			return nil, fmt.Errorf("sim: NewTorusTopology: %d^%d too large", a, n)
		}
		t.base = append(t.base, t.base[i]*int64(a))
	}
	return t, nil
}

func (t *TorusTopology) Name() string    { return fmt.Sprintf("torus(%d^%d)", t.a, t.n) }
func (t *TorusTopology) NumNodes() int64 { return t.base[t.n] }
func (t *TorusTopology) Degree() int     { return 2 * t.n }

func (t *TorusTopology) Neighbor(node int64, link int) int64 {
	base, a := t.base[link/2], int64(t.a)
	digit := node / base % a
	step := int64(1)
	if link%2 == 1 {
		step = a - 1
	}
	return node + ((digit+step)%a-digit)*base
}

func (t *TorusTopology) Path(src, dst int64) ([]int, error) {
	var links []int
	a := int64(t.a)
	for dim, base := range t.base[:t.n] {
		fwd := int((dst/base%a - src/base%a + a) % a)
		link, hops := 2*dim, fwd
		if bwd := t.a - fwd; fwd > bwd {
			link, hops = 2*dim+1, bwd
		}
		for i := 0; i < hops; i++ {
			links = append(links, link)
		}
	}
	return links, nil
}
