package core

import (
	"fmt"
	"math/bits"
	"runtime"

	"repro/internal/perm"
	"repro/internal/pool"
)

// parallelBFSThreshold is the graph order from which BFS fans out over
// GOMAXPROCS workers. Below 8! = 40,320 states a second worker saved
// nothing measurable on two cores, so BFS runs one and spawns nothing.
const parallelBFSThreshold = 40320

// bitsetBFS is the state of one bitset search over a NeighborTable's
// columns. The frontier and visited sets are word-packed bitsets over
// state ranks, and the edge kernel (column.expand) ORs each neighbor into
// a next-frontier bitset unconditionally — no per-edge visited check, no
// compare-and-swap, no permutation algebra.
//
// Parallelism is level-synchronous with no atomics at all: each worker
// expands its shard of the current frontier's words into a private
// full-size next-frontier bitset, and a second sharded pass merges the
// private bitsets word-by-word (each merge worker owns a disjoint word
// range, so every visited/dist write has exactly one writer). The two
// pool.Each barriers give the happens-before edges. Bit order is fixed by
// rank order, so the result — distance table, histogram, every derived
// statistic — is identical bit-for-bit at every worker count.
//
// A 0/1 search runs the same expand + merge passes (see bitsetSearch) and
// keeps one more bitset, level: every state found so far at the distance
// being closed.
//
// A search with cut links (Graph.BFSWithout, unit columns only) keeps a
// cut mask per column: the states whose link along that column is cut.
// Before a column expands, each worker AND-NOTs the column's mask into a
// private copy of its frontier shard, so the kernels never see a cut
// link's tail.
type bitsetBFS struct {
	workers int
	shard   int        // frontier words per worker
	visited []uint64   // all states discovered so far
	cur     []uint64   // the current frontier
	level   []uint64   // 0/1 searches only: the states at the current distance
	wnext   [][]uint64 // per-worker private next-frontier accumulators
	cut     [][]uint64 // per column, the states whose link is cut (nil: none)
	masked  [][]uint64 // per-worker frontier shard minus a column's cut states
	d8      []uint8    // compact distances (stored +1; 0 = unreachable)
	d32     []int32    // wide fallback, non-nil only after an overflow widen
	counts  []int64    // per-merge-worker newly discovered counts
}

// words returns worker w's word range [lo, hi) of the frontier.
func (e *bitsetBFS) words(w int) (lo, hi int) {
	n := len(e.cur)
	return min(w*e.shard, n), min((w+1)*e.shard, n)
}

// expandWords expands every frontier state in cur's word range [lo, hi)
// along cols into worker w's private next-frontier bitset, one column at
// a time. A column with a cut mask expands the shard minus the states
// whose link along it is cut.
func (e *bitsetBFS) expandWords(w, lo, hi int, cols []column) {
	next, cur := e.wnext[w], e.cur[lo:hi]
	for ci := range cols {
		src := cur
		if e.cut != nil && e.cut[ci] != nil {
			src = e.masked[w][:hi-lo]
			for i, c := range e.cut[ci][lo:hi] {
				src[i] = cur[i] &^ c
			}
		}
		cols[ci].expand(next, src, lo)
	}
}

// mergeWords combines the workers' private next-frontier words in range
// [lo, hi): OR them together (clearing the accumulators for the next
// level), strip already-visited states, commit the survivors to visited
// and the new frontier, and record their stored distance.
//
//scglint:hotpath bitset level merge: word-wise OR/mask of the private frontiers plus one dist write per new state
func (e *bitsetBFS) mergeWords(w, lo, hi int, stored uint8) {
	var found int64
	for wi := lo; wi < hi; wi++ {
		var m uint64
		for _, wn := range e.wnext {
			m |= wn[wi]
			wn[wi] = 0
		}
		m &^= e.visited[wi]
		e.visited[wi] |= m
		e.cur[wi] = m
		found += int64(bits.OnesCount64(m))
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			e.d8[int64(wi)<<6+int64(b)] = stored
		}
	}
	e.counts[w] = found
}

// mergeWordsWide is mergeWords against the int32 backing, used only after
// an overflow widened the table mid-search.
func (e *bitsetBFS) mergeWordsWide(w, lo, hi int, d int32) {
	var found int64
	for wi := lo; wi < hi; wi++ {
		var m uint64
		for _, wn := range e.wnext {
			m |= wn[wi]
			wn[wi] = 0
		}
		m &^= e.visited[wi]
		e.visited[wi] |= m
		e.cur[wi] = m
		found += int64(bits.OnesCount64(m))
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			e.d32[int64(wi)<<6+int64(b)] = d
		}
	}
	e.counts[w] = found
}

// widen converts the compact distance backing to int32 in place.
func (e *bitsetBFS) widen() {
	e.d32 = make([]int32, len(e.d8))
	for i, v := range e.d8 {
		e.d32[i] = int32(v) - 1
	}
	e.d8 = nil
}

// pass is one expand + merge: the neighbors along cols of the frontier
// that are not yet visited become the new frontier, at distance d. In a
// 0/1 search they also join level. pass returns how many states it found.
func (e *bitsetBFS) pass(cols []column, d int32) int64 {
	if e.d32 == nil && d > u8DistLimit {
		// These states would land past the byte limit: fall back to the
		// wide backing for the rest of the search.
		e.widen()
	}
	pool.Each(e.workers, e.workers, func(w int) {
		lo, hi := e.words(w)
		e.expandWords(w, lo, hi, cols)
	})
	stored := uint8(d + 1)
	pool.Each(e.workers, e.workers, func(w int) {
		lo, hi := e.words(w)
		if e.d32 != nil {
			e.mergeWordsWide(w, lo, hi, d)
		} else {
			e.mergeWords(w, lo, hi, stored)
		}
		if e.level != nil {
			for wi := lo; wi < hi; wi++ {
				e.level[wi] |= e.cur[wi]
			}
		}
	})
	var found int64
	for _, c := range e.counts {
		found += c
	}
	return found
}

// bitsetSearch is the engine's driver: a level-synchronous search of
// tbl's graph from srcRank with the given worker count, where column j
// costs weight[j] ∈ {0, 1}; a nil weight makes every column cost 1. A
// non-nil cut (unit searches only) holds, per column, nil or a bitset of
// the states whose link along it is never followed. Graph.BFS (through
// BFSParallel), Graph.BFSWithout, IndexGraph.BFS and both BFSWeighted run
// it.
//
// With unit columns only, level d is one pass from level d−1. A 0/1
// search (§4.3's intercluster distance, nucleus links free) closes each
// level under the zero-weight columns: level 0 starts as {src}, level d
// as the unit-column pass from all of level d−1, and then passes along
// the zero-weight columns, each from the states the one before it found
// and at the same distance, repeat until one finds nothing.
func bitsetSearch(tbl *NeighborTable, srcRank int64, workers int, weight []int, cut [][]uint64) *BFSResult {
	n := tbl.n
	words := int((n + 63) >> 6)
	workers = min(workers, words)
	e := &bitsetBFS{
		workers: workers,
		shard:   (words + workers - 1) / workers,
		visited: make([]uint64, words),
		cur:     make([]uint64, words),
		wnext:   make([][]uint64, workers),
		cut:     cut,
		d8:      make([]uint8, n),
		counts:  make([]int64, workers),
	}
	for i := range e.wnext {
		e.wnext[i] = make([]uint64, words)
	}
	if cut != nil {
		e.masked = make([][]uint64, workers)
		for i := range e.masked {
			e.masked[i] = make([]uint64, e.shard)
		}
	}
	unit, zero := byWeight(tbl.cols, weight)
	e.visited[srcRank>>6] |= 1 << (srcRank & 63)
	e.cur[srcRank>>6] |= 1 << (srcRank & 63)
	e.d8[srcRank] = 1
	if zero != nil {
		e.level = make([]uint64, words)
		e.level[srcRank>>6] |= 1 << (srcRank & 63)
	}

	hist := make([]int64, 1, maxPlausibleDiameter)
	hist[0] = 1
	for d := int32(0); ; d++ {
		if d > 0 {
			found := e.pass(unit, d)
			if found == 0 {
				break
			}
			hist = append(hist, found)
		}
		if zero == nil {
			continue
		}
		for {
			found := e.pass(zero, d)
			if found == 0 {
				break
			}
			hist[d] += found
		}
		// The closure's last pass left the frontier empty: level d becomes
		// the frontier, and the empty bitset collects level d+1.
		e.cur, e.level = e.level, e.cur
	}
	var reachable int64
	for _, c := range hist {
		reachable += c
	}

	return &BFSResult{
		Source:       srcRank,
		Reachable:    reachable,
		Eccentricity: len(hist) - 1,
		Histogram:    hist,
		Mean:         meanFromHistogram(hist),
		Dist:         DistTable{d8: e.d8, d32: e.d32},
	}
}

// byWeight splits cols into those of weight 1 and those of weight 0. A
// nil weight makes every column unit, with no copy.
func byWeight(cols []column, weight []int) (unit, zero []column) {
	if weight == nil {
		return cols, nil
	}
	for j, w := range weight {
		if w == 0 {
			zero = append(zero, cols[j])
		} else {
			unit = append(unit, cols[j])
		}
	}
	return unit, zero
}

// BFSParallel runs the bitset engine from src on the given number of
// workers, for the neighbor-table build (memoized on the graph) and the
// search; workers <= 0 means runtime.GOMAXPROCS(0). BFS picks the count by
// size; this is the explicit spelling for tests and benchmarks. See
// bitsetBFS for the sharding and determinism argument. The per-level
// fan-out runs on the pool.Each chokepoint (the measurement packages spawn
// no raw goroutines).
func (g *Graph) BFSParallel(src perm.Perm, workers int) (*BFSResult, error) {
	return g.bfsWithout(src, nil, workers)
}

// BFSWithout runs BFS from src over g with some links cut: cut[j], when
// non-nil, is a bitset over state ranks (bit r&63 of word r>>6) of the
// states whose link along generator j is cut, and holds (Order()+63)/64
// words. A cut link is never followed, so distances are those of the
// surviving graph, from src only: cuts break vertex symmetry. Links cost
// 1 each. It runs on BFS's worker count, and a nil cut is BFS.
func (g *Graph) BFSWithout(src perm.Perm, cut [][]uint64) (*BFSResult, error) {
	return g.bfsWithout(src, cut, g.bfsWorkers())
}

// bfsWithout is BFSWithout on the given worker count (<= 0 means
// runtime.GOMAXPROCS(0)), for the table build and the search.
func (g *Graph) bfsWithout(src perm.Perm, cut [][]uint64, workers int) (*BFSResult, error) {
	k := g.K()
	if k > MaxExplicitK {
		return nil, fmt.Errorf("core: BFS: k=%d exceeds MaxExplicitK=%d (%d states)", k, MaxExplicitK, perm.Factorial(k))
	}
	if len(src) != k {
		return nil, fmt.Errorf("core: BFS: source has %d symbols, graph wants %d", len(src), k)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	tbl, err := g.EnsureNeighborTable(workers)
	if err != nil {
		return nil, err
	}
	if cut != nil {
		if len(cut) != tbl.deg {
			return nil, fmt.Errorf("core: BFSWithout: %d cut masks for %d generators", len(cut), tbl.deg)
		}
		words := int((tbl.n + 63) >> 6)
		for j, c := range cut {
			if c != nil && len(c) != words {
				return nil, fmt.Errorf("core: BFSWithout: cut mask %d has %d words, want %d", j, len(c), words)
			}
		}
	}
	return bitsetSearch(tbl, src.Rank(), workers, nil, cut), nil
}
