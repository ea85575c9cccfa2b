package core

import (
	"fmt"
	"math/bits"
	"runtime"

	"repro/internal/perm"
	"repro/internal/pool"
)

// NeighborTable is the factored adjacency of a Cayley graph: one column of
// rank deltas per generator instead of a k!·deg table of neighbor ranks.
//
// A generator that moves only positions [lo, hi) of a label leaves every
// Lehmer digit outside that range unchanged, so it maps rank r to
// r + Δ[(r/s) mod span] with s = (k−hi)! and span = (k−lo)!/s. A column
// stores those span deltas, each computed once from the representative
// state of rank m·s. The paper's nucleus generators move the leftmost n+1
// symbols and its super generators never move symbol 1, so MS(2,4) keeps
// 59,040 deltas where a row table keeps 1,814,400 ranks; only a generator
// that moves both the first and one of the last two positions needs a full
// k!-entry column (star keeps two, about 2.7·k! deltas in all). Ranks and
// deltas fit 32 bits because MaxExplicitK = 10 keeps k! < 2³¹. IndexGraph
// fills full-span columns (s = 1, span = N) from its Out callback, with
// k = 0, so the bitset engine in bfs_parallel.go runs one kernel over
// both.
type NeighborTable struct {
	k, deg int
	n      int64
	cols   []column
}

// column is one generator's action on ranks: rank r moves to
// r + delta[(r/s) mod span]. divS and modSpan are the multiply-high
// reciprocals of s and span (Lemire, Kaser & Kurz, "Faster Remainder by
// Direct Computation", 2019), exact for 32-bit operands. A zero reciprocal
// skips its step: divS when s = 1, modSpan when the moved range starts at
// position 0, so that r/s < span already. wordS, nonzero when s < 64 and
// one 64-rank word can wrap past span at most once, is ⌈2¹⁶/s⌉: x·wordS>>16
// = x/s for every x < 128.
type column struct {
	delta         []int32
	s, span       uint64
	divS, modSpan uint64
	wordS         uint64
}

// newColumn returns the shape of a column over n ranks, without its deltas.
func newColumn(n, s, span int64) column {
	c := column{s: uint64(s), span: uint64(span)}
	if s > 1 {
		c.divS = ^uint64(0)/c.s + 1
	}
	if s*span < n {
		c.modSpan = ^uint64(0)/c.span + 1
	}
	if s < 64 && (c.modSpan == 0 || span >= 64) {
		c.wordS = (1<<16 + c.s - 1) / c.s
	}
	return c
}

// index returns (r/s) mod span, the delta index of rank r.
func (c *column) index(r uint64) uint64 {
	q := r
	if c.divS != 0 {
		q, _ = bits.Mul64(c.divS, r)
	}
	if c.modSpan != 0 {
		q, _ = bits.Mul64(c.modSpan*q, c.span)
	}
	return q
}

// at returns the rank the column's generator maps rank r to.
func (c *column) at(r uint64) uint64 { return uint64(int64(r) + int64(c.delta[c.index(r)])) }

// expand ORs the neighbors along c of every frontier state in cur, whose
// first word is word lo of the frontier, into next. By column shape:
//   - s >= 64: each run of s consecutive ranks moves by one delta, so a
//     64-rank word meets at most two runs. One quotient per run that holds
//     frontier states, and the run's bits are OR-ed, shifted, into at most
//     two words of next.
//   - full span (s = 1, moved range from position 0): a delta load and an
//     OR per edge.
//   - wordS != 0: one quotient and remainder per word; per edge, the delta
//     index is the word's plus a 16-bit multiply, at most one wrap past
//     span, then a delta load and an OR.
//   - otherwise (spans below 64 at the label's tail): up to three
//     multiply-highs per edge.
//
//scglint:hotpath column expand kernel: one delta load + OR per edge (per run of s >= 64 ranks) over the frontier shard
func (c *column) expand(next, cur []uint64, lo int) {
	delta, span := c.delta, c.span
	switch {
	case c.s >= 64:
		for i, word := range cur {
			r0 := uint64(lo+i) << 6
			for word != 0 {
				q, _ := bits.Mul64(c.divS, r0+uint64(bits.TrailingZeros64(word)))
				// Ranks [r0, r0+end) of this word lie in run q or before.
				run := word
				if end := (q+1)*c.s - r0; end < 64 {
					run &= 1<<end - 1
				}
				word ^= run
				if c.modSpan != 0 {
					q, _ = bits.Mul64(c.modSpan*q, span)
				}
				// The run's bit for rank r lands on rank r + delta:
				// bit b of the word goes to bit t+b of next.
				t := int64(r0) + int64(delta[q])
				sh := uint(t) & 63
				if v := run << sh; v != 0 {
					next[t>>6] |= v
				}
				if v := run >> (64 - sh); v != 0 {
					next[t>>6+1] |= v
				}
			}
		}
	case c.divS == 0 && c.modSpan == 0:
		for i, word := range cur {
			r0 := int64(lo+i) << 6
			for word != 0 {
				r := r0 + int64(bits.TrailingZeros64(word))
				word &= word - 1
				nr := r + int64(delta[r])
				next[nr>>6] |= 1 << (nr & 63)
			}
		}
	case c.wordS != 0:
		wordS := c.wordS
		for i, word := range cur {
			if word == 0 {
				continue
			}
			r0 := uint64(lo+i) << 6
			q0 := r0
			if c.divS != 0 {
				q0, _ = bits.Mul64(c.divS, r0)
			}
			t0 := r0 - q0*c.s
			if c.modSpan != 0 {
				q0, _ = bits.Mul64(c.modSpan*q0, span)
			}
			for word != 0 {
				b := uint64(bits.TrailingZeros64(word))
				word &= word - 1
				m := q0 + (t0+b)*wordS>>16
				if m >= span {
					m -= span
				}
				nr := int64(r0+b) + int64(delta[m])
				next[nr>>6] |= 1 << (nr & 63)
			}
		}
	default:
		for i, word := range cur {
			r0 := uint64(lo+i) << 6
			for word != 0 {
				nr := c.at(r0 + uint64(bits.TrailingZeros64(word)))
				word &= word - 1
				next[nr>>6] |= 1 << (nr & 63)
			}
		}
	}
}

// neighborChunk is the number of consecutive column entries one build task
// fills. Each chunk pays a single UnrankInto and then steps from one
// representative state to the next in O(k), so larger chunks amortize the
// decode while keeping enough tasks for the worker pool.
const neighborChunk = 1 << 13

// Degree returns the number of generators (row width).
func (t *NeighborTable) Degree() int { return t.deg }

// At returns the rank of neighbor j of state r.
func (t *NeighborTable) At(r int64, j int) int64 {
	return int64(t.cols[j].at(uint64(r)))
}

// movedRange returns the positions [lo, hi) that generator gp moves; an
// identity generator gets [0, 0), one column entry of delta 0.
func movedRange(gp perm.Perm) (lo, hi int) {
	lo = -1
	for i, v := range gp {
		if v != i+1 {
			if lo < 0 {
				lo = i
			}
			hi = i + 1
		}
	}
	return max(lo, 0), hi
}

// fill computes delta[from:to). Entry m is the generator's rank shift at
// the representative state of rank m·s, whose positions right of the moved
// range hold their symbols in increasing order. One unrank at the chunk
// base; then reversing that tail gives rank m·s + s − 1, whose
// lexicographic successor is the next representative.
//
//scglint:hotpath column build kernel: one compose + popcount-rank probe per column entry, |S|·span entries per graph
func (c *column) fill(gp perm.Perm, hi int, from, to int64, cur, next perm.Perm, scratch []int) {
	k := len(cur)
	s := int64(c.s)
	perm.UnrankInto(k, from*s, cur, scratch)
	for m := from; m < to; m++ {
		cur.ComposeInto(gp, next)
		c.delta[m] = int32(next.Rank() - m*s)
		for a, b := hi, k-1; a < b; a, b = a+1, b-1 {
			cur[a], cur[b] = cur[b], cur[a]
		}
		cur.NextPermutation()
	}
}

// buildNeighborTable computes g's columns across the worker pool. workers
// <= 0 means runtime.GOMAXPROCS(0).
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
	t := &NeighborTable{k: k, deg: deg, n: n, cols: make([]column, deg)}
	his := make([]int, deg)
	var total int64
	for j, gp := range g.genPerms {
		lo, hi := movedRange(gp)
		s := perm.Factorial(k - hi)
		t.cols[j] = newColumn(n, s, perm.Factorial(k-lo)/s)
		his[j] = hi
		total += int64(t.cols[j].span)
	}
	// One backing for every column; a task fills one chunk of one column.
	backing := make([]int32, total)
	type task struct {
		col      int
		from, to int64
	}
	var tasks []task
	for j := range t.cols {
		span := int64(t.cols[j].span)
		t.cols[j].delta, backing = backing[:span:span], backing[span:]
		for from := int64(0); from < span; from += neighborChunk {
			tasks = append(tasks, task{j, from, min(from+neighborChunk, span)})
		}
	}
	pool.Each(len(tasks), workers, func(i int) {
		tk := tasks[i]
		cur := make(perm.Perm, k)
		next := make(perm.Perm, k)
		scratch := make([]int, k)
		t.cols[tk.col].fill(g.genPerms[tk.col], his[tk.col], tk.from, tk.to, cur, next, scratch)
	})
	return t, nil
}

// EnsureNeighborTable returns the graph's factored neighbor table, building
// and memoizing it on first use. The columns cost 4 bytes per entry: 236 KB
// for MS(2,4), about 2.7·k!·4 bytes for star-like families, whose two
// longest generators move position 1 and one of the last two. Callers that build it for a one-shot
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

// DropNeighborTable releases the memoized columns, if any.
func (g *Graph) DropNeighborTable() {
	g.mu.Lock()
	g.tbl = nil
	g.mu.Unlock()
}
