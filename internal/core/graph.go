// Package core implements the Cayley-graph engine behind the paper's super
// Cayley graphs (§3): implicit graphs on the symmetric group S_k defined by
// generator sets, plus exact breadth-first measurement of diameter, average
// distance, and intercluster distance on every instance small enough to
// enumerate.
//
// Nodes are permutations of 1..k; node U has a directed link to V for each
// generator g with V = U ∘ g. Because Cayley graphs are vertex-symmetric
// (Akers & Krishnamurthy), a single-source BFS from the identity yields the
// exact diameter and average distance of the whole graph: dist(U, V) =
// dist(I, U⁻¹∘V). MeasureStretch reads pair distances off that one search
// too.
//
// Every search, baselines' IndexGraph included, runs one engine: the
// level-synchronous bitset BFS (bfs_parallel.go) over a factored
// NeighborTable, one column of rank deltas per generator
// (neighbortable.go), on a worker count chosen by instance size. The
// 0/1-weight intercluster search (Graph.BFSWeighted and
// IndexGraph.BFSWeighted) is the same search with each level closed under
// the free nucleus columns. Every other state walk in the module reads
// the same columns. The tests hold unit searches to a plain queue-BFS
// oracle and to closed-form distances, 0/1 searches to a deque oracle,
// and the columns to compose + rank on every state.
package core

import (
	"fmt"
	"sync"

	"repro/internal/gen"
	"repro/internal/perm"
)

// MaxExplicitK bounds the instance size for exhaustive BFS: 10! = 3,628,800
// states at 1 byte of distance each, plus the search's bitsets and the
// neighbor table's columns (a full k!-entry column of 4-byte deltas only
// for a generator that moves position 1 and one of the last two: two for
// star, four for IS; it keeps k! < 2³¹).
// Larger instances must be measured through solver bounds instead.
const MaxExplicitK = 10

// Graph is a (possibly directed) Cayley graph on S_k.
type Graph struct {
	name string
	set  *gen.Set
	// genPerms caches each generator as an explicit permutation.
	genPerms []perm.Perm
	// undirected is true when the generator set is inverse-closed, in which
	// case each pair of opposite links is viewed as one undirected edge
	// (§3.2).
	undirected bool

	// mu guards tbl, the memoized factored neighbor table (built lazily
	// by EnsureNeighborTable, released by DropNeighborTable).
	mu  sync.Mutex
	tbl *NeighborTable
}

// NewGraph builds a Cayley graph from a generator set. The name is used in
// reports and figures.
func NewGraph(name string, set *gen.Set) *Graph {
	return &Graph{
		name:       name,
		set:        set,
		genPerms:   set.Perms(),
		undirected: set.IsInverseClosed(),
	}
}

// Name returns the graph's display name.
func (g *Graph) Name() string { return g.name }

// K returns the number of symbols permuted by each node label.
func (g *Graph) K() int { return g.set.K() }

// Order returns the number of nodes, k!.
func (g *Graph) Order() int64 { return perm.Factorial(g.set.K()) }

// OutDegree returns the number of outgoing links per node (= number of
// generators).
func (g *Graph) OutDegree() int { return g.set.Len() }

// Degree returns the node degree as the paper counts it: the number of
// generators, with each inverse pair counted once in undirected graphs
// (where every generator still contributes one incident edge, so the
// undirected degree equals the generator count as well). Self-inverse
// generators contribute a single edge either way.
func (g *Graph) Degree() int { return g.set.Len() }

// Undirected reports whether the generator set is inverse-closed.
func (g *Graph) Undirected() bool { return g.undirected }

// GeneratorSet returns the defining generator set.
func (g *Graph) GeneratorSet() *gen.Set { return g.set }

// InterclusterDegree returns the number of super generators — the number of
// intercluster links per node when each nucleus is packaged as one cluster
// (§4.3).
func (g *Graph) InterclusterDegree() int { return g.set.SuperCount() }

// Neighbors returns the out-neighbors of node u, one per generator, in
// generator order.
func (g *Graph) Neighbors(u perm.Perm) []perm.Perm {
	out := make([]perm.Perm, len(g.genPerms))
	for i, gp := range g.genPerms {
		out[i] = u.Compose(gp)
	}
	return out
}

// NeighborInto writes u's out-neighbor along generator i into dst: the
// allocation-free form of Neighbors(u)[i]. dst must have u's length and
// must not alias u.
func (g *Graph) NeighborInto(u perm.Perm, i int, dst perm.Perm) {
	u.ComposeInto(g.genPerms[i], dst)
}

// Connected reports whether the graph is strongly connected, i.e. whether
// its generators generate S_k. For k <= MaxExplicitK it reads Reachable
// from one BFS from the identity (which memoizes the neighbor table, as
// BFS does); beyond that it falls back to gen.Set.Generates, a necessary
// condition only.
func (g *Graph) Connected() bool {
	if g.K() > MaxExplicitK {
		return g.set.Generates()
	}
	res, err := g.BFS(perm.Identity(g.K()))
	return err == nil && res.Reachable == g.Order()
}

// String summarizes the graph.
func (g *Graph) String() string {
	dir := "directed"
	if g.undirected {
		dir = "undirected"
	}
	return fmt.Sprintf("%s: %s Cayley graph, k=%d, N=%d, degree=%d, generators %s",
		g.name, dir, g.K(), g.Order(), g.Degree(), g.set)
}
