package core

import (
	"fmt"

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
	// unreachable states). Unweighted searches use the compact 1-byte
	// backing; weighted searches and the overflow fallback use int32.
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
// nucleus links cost 0 and super (intercluster) links cost 1 (§4.3). It
// reads neighbor ranks from the graph's memoized NeighborTable, built on
// the same worker count as BFS.
func (g *Graph) BFSWeighted(src perm.Perm, weight []int) (*BFSResult, error) {
	k := g.K()
	if k > MaxExplicitK {
		return nil, fmt.Errorf("core: BFSWeighted: k=%d exceeds MaxExplicitK=%d", k, MaxExplicitK)
	}
	tbl, err := g.EnsureNeighborTable(g.bfsWorkers())
	if err != nil {
		return nil, err
	}
	return weightedSearch(tbl, src.Rank(), weight)
}

// weightedSearch is the 0/1-weight search (deque BFS) over tbl from
// srcRank, where column j costs weight[j] ∈ {0, 1}: zero-weight edges push
// to the deque's front and unit-weight edges to its back, so states settle
// in nondecreasing distance. Graph.BFSWeighted and IndexGraph.BFSWeighted
// both run it.
func weightedSearch(tbl *NeighborTable, srcRank int64, weight []int) (*BFSResult, error) {
	if len(weight) != tbl.deg {
		return nil, fmt.Errorf("core: BFSWeighted: %d weights for %d links per node", len(weight), tbl.deg)
	}
	for i, w := range weight {
		if w != 0 && w != 1 {
			return nil, fmt.Errorf("core: BFSWeighted: weight[%d] = %d, only 0/1 supported", i, w)
		}
	}
	n := tbl.n
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[srcRank] = 0
	deque := newIntDeque(1024)
	deque.pushFront(srcRank)
	settled := make([]bool, n)
	var maxD int32
	for deque.len() > 0 {
		r := deque.popFront()
		if settled[r] {
			continue
		}
		settled[r] = true
		d := dist[r]
		if d > maxD {
			maxD = d
		}
		for i := range weight {
			nr := tbl.At(r, i)
			nd := d + int32(weight[i])
			if dist[nr] < 0 || nd < dist[nr] {
				dist[nr] = nd
				if weight[i] == 0 {
					deque.pushFront(nr)
				} else {
					deque.pushBack(nr)
				}
			}
		}
	}
	hist := make([]int64, maxD+1)
	reachable := int64(0)
	for _, d := range dist {
		if d >= 0 {
			hist[d]++
			reachable++
		}
	}
	return &BFSResult{
		Source:       srcRank,
		Reachable:    reachable,
		Eccentricity: int(maxD),
		Histogram:    hist,
		Mean:         meanFromHistogram(hist),
		Dist:         newDistTable32(dist),
	}, nil
}

// intDeque is a growable double-ended queue of int64 node ranks.
type intDeque struct {
	buf        []int64
	head, size int
}

func newIntDeque(capacity int) *intDeque {
	if capacity < 4 {
		capacity = 4
	}
	return &intDeque{buf: make([]int64, capacity)}
}

func (d *intDeque) len() int { return d.size }

func (d *intDeque) grow() {
	nb := make([]int64, 2*len(d.buf))
	for i := 0; i < d.size; i++ {
		nb[i] = d.buf[(d.head+i)%len(d.buf)]
	}
	d.buf = nb
	d.head = 0
}

func (d *intDeque) pushFront(v int64) {
	if d.size == len(d.buf) {
		d.grow()
	}
	d.head = (d.head - 1 + len(d.buf)) % len(d.buf)
	d.buf[d.head] = v
	d.size++
}

func (d *intDeque) pushBack(v int64) {
	if d.size == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.size)%len(d.buf)] = v
	d.size++
}

func (d *intDeque) popFront() int64 {
	if d.size == 0 {
		panic("core: popFront: empty deque")
	}
	v := d.buf[d.head]
	d.head = (d.head + 1) % len(d.buf)
	d.size--
	return v
}
