package core

import "fmt"

// IndexGraph is a generic finite digraph over node indices 0..N-1 described
// by a neighbor callback. Baseline topologies that are not permutation
// graphs (hypercubes, tori, k-ary n-cubes, CCC) expose themselves through
// this interface so that one BFS engine measures everything.
type IndexGraph struct {
	// N is the number of nodes.
	N int64
	// Out calls visit for every out-neighbor of node u. The searches here
	// call it once per node, from one goroutine, so it may reuse buffers
	// from one call to the next.
	Out func(u int64, visit func(v int64))
}

// neighborTable materializes Out as full-span columns (s = 1, span = N,
// delta = v − u) of the bitset engine's NeighborTable, in one pass: a node
// with more out-neighbors than any before it adds columns. The slots that
// nodes with fewer out-neighbors leave keep delta 0, a self-loop, which a
// search never follows: a node is visited before its neighbors are read.
// An out-of-range neighbor is an error.
func (ig *IndexGraph) neighborTable() (*NeighborTable, error) {
	if ig.N < 1 || ig.N > 1<<31 {
		return nil, fmt.Errorf("core: IndexGraph: %d nodes, want 1..2^31", ig.N)
	}
	t := &NeighborTable{n: ig.N}
	var u int64
	j := 0
	badNode, badNbr := int64(-1), int64(0)
	visit := func(v int64) {
		if v < 0 || v >= ig.N {
			if badNode < 0 {
				badNode, badNbr = u, v
			}
			return
		}
		if j == len(t.cols) {
			c := newColumn(ig.N, 1, ig.N)
			c.delta = make([]int32, ig.N)
			t.cols = append(t.cols, c)
		}
		t.cols[j].delta[u] = int32(v - u)
		j++
	}
	for u = 0; u < ig.N; u++ {
		j = 0
		ig.Out(u, visit)
	}
	if badNode >= 0 {
		return nil, fmt.Errorf("core: IndexGraph: node %d has neighbor %d out of range 0..%d", badNode, badNbr, ig.N-1)
	}
	t.deg = len(t.cols)
	return t, nil
}

// BFS runs a unit-weight breadth-first search from src on the bitset
// engine, one worker.
func (ig *IndexGraph) BFS(src int64) (*BFSResult, error) {
	if src < 0 || src >= ig.N {
		return nil, fmt.Errorf("core: IndexGraph.BFS: source %d out of range 0..%d", src, ig.N-1)
	}
	tbl, err := ig.neighborTable()
	if err != nil {
		return nil, err
	}
	return bitsetSearch(tbl, src, 1, nil, nil), nil
}

// BFSWeighted runs the 0/1-weight search from src on the bitset engine,
// one worker, where the j-th neighbor Out visits costs weight[j] ∈ {0, 1}.
// A node with fewer out-neighbors than the largest out-degree gets
// self-loops in its missing slots, which never shorten a distance.
func (ig *IndexGraph) BFSWeighted(src int64, weight []int) (*BFSResult, error) {
	if src < 0 || src >= ig.N {
		return nil, fmt.Errorf("core: IndexGraph.BFSWeighted: source %d out of range 0..%d", src, ig.N-1)
	}
	tbl, err := ig.neighborTable()
	if err != nil {
		return nil, err
	}
	if err := checkWeights(weight, tbl.deg); err != nil {
		return nil, err
	}
	return bitsetSearch(tbl, src, 1, weight, nil), nil
}

// DiameterExact computes the exact diameter of a vertex-transitive
// IndexGraph by BFS from node 0; a graph that is not vertex-transitive
// needs a BFS from every node.
func (ig *IndexGraph) DiameterExact() (int, error) {
	res, err := ig.BFS(0)
	if err != nil {
		return 0, err
	}
	if res.Reachable != ig.N {
		return 0, fmt.Errorf("core: DiameterExact: not strongly connected (%d/%d reachable)", res.Reachable, ig.N)
	}
	return res.Eccentricity, nil
}
