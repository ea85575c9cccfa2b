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
type bitsetBFS struct {
	tbl     *NeighborTable
	visited []uint64   // all states discovered so far
	cur     []uint64   // the current frontier
	wnext   [][]uint64 // per-worker private next-frontier accumulators
	d8      []uint8    // compact distances (stored +1; 0 = unreachable)
	d32     []int32    // wide fallback, non-nil only after an overflow widen
	counts  []int64    // per-merge-worker newly discovered counts
}

// expandWords expands every frontier state in cur's word range [lo, hi)
// into worker w's private next-frontier bitset, one column at a time.
func (e *bitsetBFS) expandWords(w, lo, hi int) {
	next, cur := e.wnext[w], e.cur[lo:hi]
	for ci := range e.tbl.cols {
		e.tbl.cols[ci].expand(next, cur, lo)
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

// bitsetSearch is the engine's driver: a level-synchronous search of
// tbl's graph from srcRank with the given worker count. Both Graph.BFS
// (through BFSParallel) and IndexGraph.BFS run it.
func bitsetSearch(tbl *NeighborTable, srcRank int64, workers int) *BFSResult {
	n := tbl.n
	words := int((n + 63) >> 6)
	if workers > words {
		workers = words
	}
	e := &bitsetBFS{
		tbl:     tbl,
		visited: make([]uint64, words),
		cur:     make([]uint64, words),
		wnext:   make([][]uint64, workers),
		d8:      make([]uint8, n),
		counts:  make([]int64, workers),
	}
	for i := range e.wnext {
		e.wnext[i] = make([]uint64, words)
	}
	e.visited[srcRank>>6] |= 1 << (srcRank & 63)
	e.cur[srcRank>>6] |= 1 << (srcRank & 63)
	e.d8[srcRank] = 1

	hist := make([]int64, 1, maxPlausibleDiameter)
	hist[0] = 1
	reachable := int64(1)
	shard := (words + workers - 1) / workers
	for d := int32(1); ; d++ {
		if e.d32 == nil && d > u8DistLimit {
			// This level's states would land past the byte limit: fall
			// back to the wide backing for the rest of the search.
			e.widen()
		}
		pool.Each(workers, workers, func(w int) {
			lo := w * shard
			hi := lo + shard
			if hi > words {
				hi = words
			}
			e.expandWords(w, lo, hi)
		})
		stored := uint8(d + 1)
		pool.Each(workers, workers, func(w int) {
			lo := w * shard
			hi := lo + shard
			if hi > words {
				hi = words
			}
			if e.d32 != nil {
				e.mergeWordsWide(w, lo, hi, d)
			} else {
				e.mergeWords(w, lo, hi, stored)
			}
		})
		var found int64
		for _, c := range e.counts {
			found += c
		}
		if found == 0 {
			break
		}
		hist = append(hist, found)
		reachable += found
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

// BFSParallel runs the bitset engine from src on the given number of
// workers, for the neighbor-table build (memoized on the graph) and the
// search; workers <= 0 means runtime.GOMAXPROCS(0). BFS picks the count by
// size; this is the explicit spelling for tests and benchmarks. See
// bitsetBFS for the sharding and determinism argument. The per-level
// fan-out runs on the pool.Each chokepoint (the measurement packages spawn
// no raw goroutines).
func (g *Graph) BFSParallel(src perm.Perm, workers int) (*BFSResult, error) {
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
	return bitsetSearch(tbl, src.Rank(), workers), nil
}
