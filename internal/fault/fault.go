// Package fault measures the resilience of permutation networks to link
// failures — the fault-tolerance property the paper's introduction cites as
// one of the star graph's attractions that super Cayley graphs inherit.
// Vertex symmetry is broken by faults, so measurements run from explicit
// sources over the faulted graph.
package fault

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/perm"
)

// Link identifies one directed link: the source node rank and the generator
// (link dimension) index.
type Link struct {
	Node int64
	Gen  int
}

// Set is a collection of failed directed links.
type Set map[Link]bool

// NewSet builds a fault set from links.
func NewSet(links ...Link) Set {
	s := make(Set, len(links))
	for _, l := range links {
		s[l] = true
	}
	return s
}

// RandomSet draws `count` distinct random failed links from a graph with n
// nodes and degree deg, deterministically from the seed. It panics unless
// 0 <= count <= n·deg: the graph has no more distinct links to draw.
func RandomSet(n int64, deg int, count int, seed uint64) Set {
	if count < 0 || int64(count) > n*int64(deg) {
		panic(fmt.Sprintf("fault: RandomSet: %d faults out of range 0..%d (%d nodes x %d links)", count, n*int64(deg), n, deg))
	}
	rng := perm.NewRNG(seed)
	s := make(Set, count)
	for len(s) < count {
		l := Link{Node: int64(rng.Intn(int(n))), Gen: rng.Intn(deg)}
		s[l] = true
	}
	return s
}

// Profile reports the state of a faulted graph as seen from one source.
type Profile struct {
	// Reachable counts nodes still reachable from the source.
	Reachable int64
	// Connected is true when every node remains reachable.
	Connected bool
	// Eccentricity is the largest finite distance from the source.
	Eccentricity int
	// Mean is the average distance to reachable non-source nodes.
	Mean float64
}

// BFS runs a breadth-first search from src over g with the failed links
// removed, on core's bitset engine (core.Graph.BFSWithout). Undirected
// graphs should include both directions of a failed edge in the set if the
// physical wire is cut. A link whose node or generator is outside g is an
// error.
func BFS(g *core.Graph, faults Set, src perm.Perm) (*Profile, error) {
	cut, err := cutMasks(g, faults)
	if err != nil {
		return nil, fmt.Errorf("fault: BFS: %w", err)
	}
	res, err := g.BFSWithout(src, cut)
	if err != nil {
		return nil, fmt.Errorf("fault: BFS: %w", err)
	}
	return &Profile{
		Reachable:    res.Reachable,
		Connected:    res.Reachable == g.Order(),
		Eccentricity: res.Eccentricity,
		Mean:         res.Mean,
	}, nil
}

// cutMasks returns faults as BFSWithout's cut masks over g's states: mask
// j, allocated only if some link along generator j failed, holds the
// failed links' nodes. It refuses g beyond core.MaxExplicitK and names the
// least link, in (Node, Gen) order, that is not a link of g.
func cutMasks(g *core.Graph, faults Set) ([][]uint64, error) {
	if g.K() > core.MaxExplicitK {
		return nil, fmt.Errorf("%s has k=%d, beyond core.MaxExplicitK=%d", g.Name(), g.K(), core.MaxExplicitK)
	}
	if err := checkLinks(g, faults); err != nil {
		return nil, err
	}
	n := g.Order()
	cut := make([][]uint64, g.OutDegree())
	for l, down := range faults {
		if !down {
			continue
		}
		if cut[l.Gen] == nil {
			cut[l.Gen] = make([]uint64, (n+63)/64)
		}
		cut[l.Gen][l.Node>>6] |= 1 << (l.Node & 63)
	}
	return cut, nil
}

// checkLinks names the least failed link of faults, in (Node, Gen) order,
// whose node lies outside 0..N−1 or whose generator lies outside
// 0..deg−1 of g.
func checkLinks(g *core.Graph, faults Set) error {
	n, deg := g.Order(), g.OutDegree()
	var bad *Link
	for l, down := range faults {
		outside := l.Node < 0 || l.Node >= n || l.Gen < 0 || l.Gen >= deg
		if down && outside && (bad == nil || l.Node < bad.Node || l.Node == bad.Node && l.Gen < bad.Gen) {
			bad = &l
		}
	}
	if bad == nil {
		return nil
	}
	return fmt.Errorf("link %+v is not a link of %s (nodes 0..%d, generators 0..%d)", *bad, g.Name(), n-1, deg-1)
}

// MirrorUndirected extends a fault set with the reverse direction of every
// failed link, modelling a severed physical wire in an undirected Cayley
// graph. The reverse of (u, g) is (u∘g, g') where g' is the generator whose
// action inverts g. A link marked up (false) is copied as it is, unless it
// is the reverse of a failed one.
func MirrorUndirected(g *core.Graph, faults Set) (Set, error) {
	if err := checkLinks(g, faults); err != nil {
		return nil, fmt.Errorf("fault: MirrorUndirected: %w", err)
	}
	k := g.K()
	set := g.GeneratorSet()
	perms := set.Perms()
	// For each generator the index of its inverse action.
	invIdx := make([]int, set.Len())
	for i := range invIdx {
		if invIdx[i] = set.IndexOf(set.At(i).Inverse(k)); invIdx[i] < 0 {
			return nil, fmt.Errorf("fault: MirrorUndirected: generator %s has no inverse in %s", set.At(i).Name(), g.Name())
		}
	}
	out := make(Set, 2*len(faults))
	for l, down := range faults {
		out[l] = down
	}
	buf := make(perm.Perm, k)
	scratch := make([]int, k)
	tgt := make(perm.Perm, k)
	for l, down := range faults {
		if !down {
			continue
		}
		perm.UnrankInto(k, l.Node, buf, scratch)
		buf.ComposeInto(perms[l.Gen], tgt)
		out[Link{Node: tgt.Rank(), Gen: invIdx[l.Gen]}] = true
	}
	return out, nil
}

// Trial summarizes a random-failure experiment.
type Trial struct {
	Faults            int
	ConnectedRuns     int
	Runs              int
	WorstEccDelta     int     // worst eccentricity increase over the fault-free value
	MeanDistInflation float64 // average of (faulted mean / fault-free mean)
}

// RandomTrials injects `faults` random failed links (mirrored for
// undirected graphs), repeats `runs` times with distinct seeds, and reports
// connectivity and distance inflation from the identity source. faults
// must lie in 0..N·deg, the graph's count of directed links.
func RandomTrials(g *core.Graph, faults, runs int, seed uint64) (*Trial, error) {
	if links := g.Order() * int64(g.OutDegree()); faults < 0 || int64(faults) > links {
		return nil, fmt.Errorf("fault: RandomTrials: %d faults out of range 0..%d (the links of %s)", faults, links, g.Name())
	}
	base, err := g.ExactProfile()
	if err != nil {
		return nil, fmt.Errorf("fault: RandomTrials: %s fault-free: %w", g.Name(), err)
	}
	tr := &Trial{Faults: faults, Runs: runs}
	var inflationSum float64
	for r := 0; r < runs; r++ {
		fs := RandomSet(g.Order(), g.OutDegree(), faults, seed+uint64(r))
		if g.Undirected() {
			fs, err = MirrorUndirected(g, fs)
			if err != nil {
				return nil, err
			}
		}
		prof, err := BFS(g, fs, perm.Identity(g.K()))
		if err != nil {
			return nil, err
		}
		if prof.Connected {
			tr.ConnectedRuns++
			tr.WorstEccDelta = max(tr.WorstEccDelta, prof.Eccentricity-base.Eccentricity)
			inflationSum += prof.Mean / base.Mean
		}
	}
	if tr.ConnectedRuns > 0 {
		tr.MeanDistInflation = inflationSum / float64(tr.ConnectedRuns)
	}
	return tr, nil
}
