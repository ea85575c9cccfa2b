package core

import (
	"fmt"
	"runtime"

	"repro/internal/perm"
)

// BFSResult holds the exact distance profile of a graph from one source.
// For a vertex-symmetric graph this profile is the same from every source,
// so Eccentricity is the graph diameter and Mean the average distance.
type BFSResult struct {
	// Source is the node index the search started from.
	Source int64
	// Reachable counts nodes at finite distance (including the source).
	Reachable int64
	// Eccentricity is the largest finite distance found.
	Eccentricity int
	// Histogram[d] is the number of nodes at distance exactly d.
	Histogram []int64
	// Mean is the average distance over all reachable nodes other than the
	// source (the paper's "average distance" convention).
	Mean float64
	// Dist maps node rank to distance from the source (At returns -1 for
	// unreachable states). Unit and 0/1 searches alike use the compact
	// 1-byte backing; only the overflow fallback uses int32.
	Dist DistTable
}

// meanFromHistogram computes the average distance over all reachable
// nodes other than the source, Σ d·hist[d] / (reachable − 1). In a 0/1
// search hist[0] also counts the source's zero-distance cluster-mates, and
// they are part of the average.
func meanFromHistogram(hist []int64) float64 {
	var sum, cnt int64
	for d, c := range hist {
		sum += int64(d) * c
		cnt += c
	}
	if cnt <= 1 {
		return 0
	}
	return float64(sum) / float64(cnt-1)
}

// BFS runs a breadth-first search over the whole k!-state space from node
// src, using unit link weights. It errors if k exceeds MaxExplicitK.
//
// BFS runs the bitset engine (BFSParallel) on a worker count chosen by
// size: one worker below parallelBFSThreshold states, GOMAXPROCS at or
// above it. The engine builds the graph's factored NeighborTable on first
// use and leaves it memoized; one-shot callers should DropNeighborTable
// afterwards. The result does not depend on the worker count
// (TestEngineMatchesOracle).
func (g *Graph) BFS(src perm.Perm) (*BFSResult, error) {
	return g.BFSParallel(src, g.bfsWorkers())
}

// bfsWorkers is the worker count BFS picks by size: one below
// parallelBFSThreshold states, GOMAXPROCS (0) at or above it.
func (g *Graph) bfsWorkers() int {
	if g.Order() < parallelBFSThreshold {
		return 1
	}
	return 0
}

// maxPlausibleDiameter sizes the initial distance histogram: no generator
// set we build exceeds this eccentricity at k <= MaxExplicitK (bubble-sort
// graphs peak at k(k-1)/2 = 45 for k = 10); the histogram still grows past
// it if a search proves otherwise.
const maxPlausibleDiameter = 64

// Diameter returns the exact diameter via BFS from the identity, exploiting
// vertex-transitivity. It errors for disconnected graphs or k >
// MaxExplicitK.
func (g *Graph) Diameter() (int, error) {
	res, err := g.BFS(perm.Identity(g.K()))
	if err != nil {
		return 0, err
	}
	if res.Reachable != g.Order() {
		return 0, fmt.Errorf("core: Diameter: graph is not strongly connected (%d of %d reachable)", res.Reachable, g.Order())
	}
	return res.Eccentricity, nil
}

// AverageDistance returns the exact average distance via BFS from the
// identity.
func (g *Graph) AverageDistance() (float64, error) {
	res, err := g.BFS(perm.Identity(g.K()))
	if err != nil {
		return 0, err
	}
	if res.Reachable != g.Order() {
		return 0, fmt.Errorf("core: AverageDistance: graph is not strongly connected")
	}
	return res.Mean, nil
}

// ExactProfile runs one BFS from the identity and returns the full distance
// profile, erroring if the graph is not strongly connected. Callers that
// need both the diameter (Eccentricity) and average distance (Mean) should
// use this instead of Diameter + AverageDistance, which each run their own
// full BFS.
func (g *Graph) ExactProfile() (*BFSResult, error) {
	res, err := g.BFS(perm.Identity(g.K()))
	if err != nil {
		return nil, err
	}
	if res.Reachable != g.Order() {
		return nil, fmt.Errorf("core: ExactProfile: graph is not strongly connected (%d of %d reachable)", res.Reachable, g.Order())
	}
	return res, nil
}

// BFSWeighted runs a 0/1-weight shortest-path search where link i costs
// weight[i] ∈ {0, 1}. It is used to measure intercluster distances:
// nucleus links cost 0 and super (intercluster) links cost 1 (§4.3), so
// Histogram[0] counts the source's cluster. It runs the bitset engine
// over the graph's memoized NeighborTable on the same worker count as
// BFS; see bitsetSearch for how a level is closed under the free links.
func (g *Graph) BFSWeighted(src perm.Perm, weight []int) (*BFSResult, error) {
	return g.bfsWeighted(src, weight, g.bfsWorkers())
}

// bfsWeighted is BFSWeighted on the given worker count (<= 0 means
// runtime.GOMAXPROCS(0)), for the table build and the search.
func (g *Graph) bfsWeighted(src perm.Perm, weight []int, workers int) (*BFSResult, error) {
	k := g.K()
	if k > MaxExplicitK {
		return nil, fmt.Errorf("core: BFSWeighted: k=%d exceeds MaxExplicitK=%d", k, MaxExplicitK)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	tbl, err := g.EnsureNeighborTable(workers)
	if err != nil {
		return nil, err
	}
	if err := checkWeights(weight, tbl.deg); err != nil {
		return nil, err
	}
	return bitsetSearch(tbl, src.Rank(), workers, weight, nil), nil
}

// checkWeights refuses a weight vector a 0/1 search cannot run: it needs
// one weight per link of a node, each 0 or 1.
func checkWeights(weight []int, deg int) error {
	if len(weight) != deg {
		return fmt.Errorf("core: BFSWeighted: %d weights for %d links per node", len(weight), deg)
	}
	for i, w := range weight {
		if w != 0 && w != 1 {
			return fmt.Errorf("core: BFSWeighted: weight[%d] = %d, only 0/1 supported", i, w)
		}
	}
	return nil
}
