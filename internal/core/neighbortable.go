package core

import (
	"fmt"
	"runtime"

	"repro/internal/perm"
	"repro/internal/pool"
)

// NeighborTable is the precomposed adjacency of a Cayley graph: one flat
// row of generator targets per state, nbr[r*deg+j] = Rank(Unrank(r) ∘ g_j),
// computed once per build. With the table resident the BFS inner loop is a
// pair of array lookups per edge instead of an unrank + compose + rank
// permutation kernel — the bitset engine in bfs_parallel.go runs entirely
// off it. Ranks fit uint32 because MaxExplicitK = 10 keeps k! < 2³².
// IndexGraph fills the same layout from its Out callback, with k = 0.
type NeighborTable struct {
	k, deg int
	n      int64
	nbr    []uint32
}

// neighborChunk is the number of consecutive states one build task fills.
// Each chunk pays a single UnrankInto and then walks its states with
// NextPermutation (lexicographic successor == rank order), so larger chunks
// amortize the decode while keeping enough tasks for the worker pool.
const neighborChunk = 1 << 13

// K returns the symbol count of the underlying graph.
func (t *NeighborTable) K() int { return t.k }

// Degree returns the number of generators (row width).
func (t *NeighborTable) Degree() int { return t.deg }

// Len returns the number of states covered.
func (t *NeighborTable) Len() int64 { return t.n }

// Bytes returns the heap footprint of the table backing.
func (t *NeighborTable) Bytes() int64 { return int64(len(t.nbr)) * 4 }

// Raw returns the flat row-major backing (nbr[r*deg+j] = rank of neighbor
// j of state r). The slice aliases the table; callers must not mutate it.
// It exists for internal/store, which persists the backing verbatim.
func (t *NeighborTable) Raw() []uint32 { return t.nbr }

// NewNeighborTableRaw reconstructs a table from its raw backing, as loaded
// from the persistent store. The caller transfers ownership of nbr, whose
// length must equal k!·deg.
func NewNeighborTableRaw(k, deg int, nbr []uint32) (*NeighborTable, error) {
	if k < 1 || k > MaxExplicitK {
		return nil, fmt.Errorf("core: NewNeighborTableRaw: k=%d out of range [1, %d]", k, MaxExplicitK)
	}
	if deg < 1 {
		return nil, fmt.Errorf("core: NewNeighborTableRaw: degree %d < 1", deg)
	}
	n := perm.Factorial(k)
	if int64(len(nbr)) != n*int64(deg) {
		return nil, fmt.Errorf("core: NewNeighborTableRaw: %d entries, want %d (k=%d deg=%d)", len(nbr), n*int64(deg), k, deg)
	}
	return &NeighborTable{k: k, deg: deg, n: n, nbr: nbr}, nil
}

// Row returns the neighbor ranks of state r in generator order. The slice
// aliases the table; callers must not mutate it.
func (t *NeighborTable) Row(r int64) []uint32 {
	base := r * int64(t.deg)
	return t.nbr[base : base+int64(t.deg)]
}

// At returns the rank of neighbor j of state r.
func (t *NeighborTable) At(r int64, j int) int64 {
	return int64(t.nbr[r*int64(t.deg)+int64(j)])
}

// fillChunk precomposes the rows of states [lo, hi): one unrank at the
// chunk base, then |S| compose+rank probes per state with NextPermutation
// advancing the state label in rank order.
//
//scglint:hotpath precomposed-table build kernel: |S| compose + popcount-rank probes per k!-space state
func (t *NeighborTable) fillChunk(genPerms []perm.Perm, lo, hi int64, cur, next perm.Perm, scratch []int) {
	perm.UnrankInto(t.k, lo, cur, scratch)
	base := lo * int64(t.deg)
	for r := lo; r < hi; r++ {
		for _, gp := range genPerms {
			cur.ComposeInto(gp, next)
			t.nbr[base] = uint32(next.RankBits())
			base++
		}
		cur.NextPermutation()
	}
}

// buildNeighborTable materializes the full adjacency of g across the worker
// pool. workers <= 0 means runtime.GOMAXPROCS(0).
func buildNeighborTable(g *Graph, workers int) (*NeighborTable, error) {
	k := g.K()
	if k > MaxExplicitK {
		return nil, fmt.Errorf("core: NeighborTable: k=%d exceeds MaxExplicitK=%d", k, MaxExplicitK)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := perm.Factorial(k)
	deg := len(g.genPerms)
	t := &NeighborTable{
		k:   k,
		deg: deg,
		n:   n,
		nbr: make([]uint32, n*int64(deg)),
	}
	chunks := int((n + neighborChunk - 1) / neighborChunk)
	pool.Each(chunks, workers, func(ci int) {
		lo := int64(ci) * neighborChunk
		hi := lo + neighborChunk
		if hi > n {
			hi = n
		}
		cur := make(perm.Perm, k)
		next := make(perm.Perm, k)
		scratch := make([]int, k)
		t.fillChunk(g.genPerms, lo, hi, cur, next, scratch)
	})
	return t, nil
}

// EnsureNeighborTable returns the graph's precomposed neighbor table,
// building and memoizing it on first use. The table costs n·deg·4 bytes
// (~130 MB for star-10), so callers that materialize it for a one-shot
// measurement should DropNeighborTable afterwards — the server's profile
// builder does exactly that before handing the graph to the LRU.
func (g *Graph) EnsureNeighborTable(workers int) (*NeighborTable, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.tbl != nil {
		return g.tbl, nil
	}
	//scglint:lockheld memoized singleflight: the barrier under g.mu is the point — concurrent callers must wait for the one build rather than race their own
	t, err := buildNeighborTable(g, workers)
	if err != nil {
		return nil, err
	}
	g.tbl = t
	return t, nil
}

// DropNeighborTable releases the memoized neighbor table, if any.
func (g *Graph) DropNeighborTable() {
	g.mu.Lock()
	g.tbl = nil
	g.mu.Unlock()
}
