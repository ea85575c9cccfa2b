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
