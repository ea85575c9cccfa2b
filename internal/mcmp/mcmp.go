// Package mcmp models the multiple chip-multiprocessor (MCMP) packaging of
// §4.3: each nucleus (the subgraph induced by nucleus generators) is one
// chip/cluster, nucleus links are free on-chip wires, and super-generator
// links are the expensive intercluster (off-chip) wires. One 0/1-weighted
// BFS from the identity measures the cluster size (its distance-0 level),
// intercluster diameter and average intercluster distance exactly; the
// package also computes off-chip link bandwidth under a fixed per-node pin
// budget and estimates bisection quantities for Theorem 4.9.
package mcmp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/perm"
)

// Profile summarizes the MCMP metrics of one network.
type Profile struct {
	// ClusterSize M is the number of nodes per cluster: (n+1)! for a
	// transposition or insertion nucleus over n+1 symbols acting freely on
	// the remaining symbols — measured as level 0 of the 0/1 search, the
	// nodes the identity reaches over free nucleus links (every cluster is
	// isomorphic to it by vertex symmetry).
	ClusterSize int64
	// InterclusterDegree is the number of super generators per node.
	InterclusterDegree int
	// InterclusterDiameter is the maximum number of intercluster hops
	// between any pair of nodes.
	InterclusterDiameter int
	// AvgInterclusterDistance is the mean number of intercluster hops over
	// all node pairs.
	AvgInterclusterDistance float64
	// LinkBandwidth is the off-chip bandwidth of each intercluster link
	// when every node has aggregate off-chip bandwidth w: w/d_i (§4.3).
	LinkBandwidth float64
}

// InterclusterWeights returns the 0/1 weight vector that charges super
// generators one intercluster hop and nucleus generators zero.
func InterclusterWeights(set *gen.Set) []int {
	w := make([]int, set.Len())
	for i := 0; i < set.Len(); i++ {
		if set.At(i).Class() == gen.Super {
			w[i] = 1
		}
	}
	return w
}

// Measure computes the MCMP profile of a Cayley graph whose generator set
// mixes nucleus and super generators. w is the aggregate off-chip bandwidth
// per node. The graph must be small enough for exhaustive BFS.
func Measure(g *core.Graph, w float64) (*Profile, error) {
	set := g.GeneratorSet()
	di := set.SuperCount()
	if di == 0 {
		return nil, fmt.Errorf("mcmp: Measure: %s has no super generators (single-chip network)", g.Name())
	}
	weights := InterclusterWeights(set)
	res, err := g.BFSWeighted(perm.Identity(g.K()), weights)
	if err != nil {
		return nil, err
	}
	if res.Reachable != g.Order() {
		return nil, fmt.Errorf("mcmp: Measure: %s is not connected", g.Name())
	}
	return &Profile{
		ClusterSize:             res.Histogram[0],
		InterclusterDegree:      di,
		InterclusterDiameter:    res.Eccentricity,
		AvgInterclusterDistance: res.Mean,
		LinkBandwidth:           w / float64(di),
	}, nil
}

// LexBisectionCut counts the links crossing the lexicographic-half
// bisection (nodes with rank < N/2 versus the rest). Each direction of a
// directed link counts once; for undirected graphs the count is the number
// of directed crossings, i.e. twice the undirected cut. The result is an
// upper bound on the minimum bisection cut.
func LexBisectionCut(g *core.Graph) (int64, error) {
	k := g.K()
	if k > core.MaxExplicitK-1 {
		return 0, fmt.Errorf("mcmp: LexBisectionCut: k=%d too large", k)
	}
	tbl, err := g.EnsureNeighborTable(0)
	if err != nil {
		return 0, err
	}
	n := g.Order()
	half := n / 2
	var cut int64
	for r := int64(0); r < n; r++ {
		inA := r < half
		for j := 0; j < tbl.Degree(); j++ {
			if (tbl.At(r, j) < half) != inA {
				cut++
			}
		}
	}
	return cut, nil
}

// PrefixBisectionCut counts links crossing the bisection that splits nodes
// by whether symbol 1 sits in the left or right half of the label — a
// partition aligned with the super-symbol structure, usually much tighter
// than the lexicographic cut for super Cayley graphs.
func PrefixBisectionCut(g *core.Graph) (int64, error) {
	k := g.K()
	if k > core.MaxExplicitK-1 {
		return 0, fmt.Errorf("mcmp: PrefixBisectionCut: k=%d too large", k)
	}
	n := g.Order()
	mid := k / 2
	var cut int64
	var sideA int64
	cur := make(perm.Perm, k)
	next := make(perm.Perm, k)
	scratch := make([]int, k)
	perms := g.GeneratorSet().Perms()
	side := func(p perm.Perm) bool { return p.PositionOf(1) <= mid }
	for r := int64(0); r < n; r++ {
		perm.UnrankInto(k, r, cur, scratch)
		inA := side(cur)
		if inA {
			sideA++
		}
		for _, gp := range perms {
			cur.ComposeInto(gp, next)
			if side(next) != inA {
				cut++
			}
		}
	}
	// This partition is only a genuine bisection when k is even (sides
	// mid·(k-1)! vs (k-mid)·(k-1)!); report an error otherwise.
	if sideA*2 != n {
		return 0, fmt.Errorf("mcmp: PrefixBisectionCut: partition %d/%d is not a bisection (k odd)", sideA, n-sideA)
	}
	return cut, nil
}
