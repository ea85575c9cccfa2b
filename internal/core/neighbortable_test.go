package core

import (
	"math/bits"
	"testing"

	"repro/internal/gen"
	"repro/internal/perm"
)

// TestNeighborTableMatchesComposeRank checks every row of a star-5 table
// against the definition: entry (r, j) must equal Rank(Unrank(r) ∘ g_j).
func TestNeighborTableMatchesComposeRank(t *testing.T) {
	var gens []gen.Generator
	for i := 2; i <= 5; i++ {
		gens = append(gens, gen.NewTransposition(i))
	}
	set, err := gen.NewSet(5, gens...)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGraph("star-5", set)
	tbl, err := g.EnsureNeighborTable(3)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.k != 5 || tbl.Degree() != len(gens) || tbl.n != 120 {
		t.Fatalf("table meta: k=%d deg=%d n=%d", tbl.k, tbl.Degree(), tbl.n)
	}
	// Transposition (1 i) moves positions [0, i): its column holds
	// 5!/(5−i)! deltas, capped at s = 1 for the last two.
	var deltas int
	for i := range tbl.cols {
		deltas += len(tbl.cols[i].delta)
	}
	if want := 20 + 60 + 120 + 120; deltas != want {
		t.Fatalf("columns hold %d deltas, want %d", deltas, want)
	}
	next := make(perm.Perm, 5)
	for r := int64(0); r < tbl.n; r++ {
		u := perm.Unrank(5, r)
		for j, gp := range g.genPerms {
			u.ComposeInto(gp, next)
			if got, want := tbl.At(r, j), next.Rank(); got != want {
				t.Fatalf("entry (%d,%d) = %d, want %d", r, j, got, want)
			}
		}
	}
	// The table is memoized until dropped.
	again, err := g.EnsureNeighborTable(1)
	if err != nil {
		t.Fatal(err)
	}
	if again != tbl {
		t.Fatal("EnsureNeighborTable rebuilt a memoized table")
	}
	g.DropNeighborTable()
	fresh, err := g.EnsureNeighborTable(1)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == tbl {
		t.Fatal("DropNeighborTable left the old table resident")
	}
	g.DropNeighborTable()
}

// FuzzNeighborTable builds factored tables for random inverse-closed
// generator sets and requires every sampled state's entries to agree with
// the direct ComposeInto + Rank computation, across worker counts.
func FuzzNeighborTable(f *testing.F) {
	f.Add(uint8(4), uint64(1), uint8(2))
	f.Add(uint8(6), uint64(42), uint8(3))
	f.Add(uint8(7), uint64(9), uint8(5))
	f.Fuzz(func(t *testing.T, rawK uint8, seed uint64, rawCount uint8) {
		k := 2 + int(rawK)%6 // 2..7
		universe := fuzzGenUniverse(k)
		rng := perm.NewRNG(seed)
		count := 1 + int(rawCount)%4
		var picked []gen.Generator
		seen := map[string]bool{}
		add := func(g gen.Generator) {
			key := g.AsPerm(k).String()
			if key == perm.Identity(k).String() || seen[key] {
				return
			}
			seen[key] = true
			picked = append(picked, g)
		}
		for i := 0; i < count; i++ {
			g := universe[rng.Intn(len(universe))]
			add(g)
			add(g.Inverse(k))
		}
		if len(picked) == 0 {
			t.Skip("all picks degenerate")
		}
		set, err := gen.NewSet(k, picked...)
		if err != nil {
			t.Fatalf("NewSet(k=%d, %v): %v", k, picked, err)
		}
		g := NewGraph("fuzz", set)
		workers := 1 + int(seed%4)
		tbl, err := g.EnsureNeighborTable(workers)
		if err != nil {
			t.Fatalf("EnsureNeighborTable(workers=%d): %v", workers, err)
		}
		n := tbl.n
		next := make(perm.Perm, k)
		stride := int64(1)
		if n > 2048 {
			stride = n / 1024
		}
		for r := int64(0); r < n; r += stride {
			u := perm.Unrank(k, r)
			for j, gp := range g.genPerms {
				u.ComposeInto(gp, next)
				if got, want := tbl.At(r, j), next.Rank(); got != want {
					t.Fatalf("k=%d workers=%d: entry (%d,%d) = %d, want %d (set %v)", k, workers, r, j, got, want, set)
				}
			}
		}
	})
}

// TestColumnReciprocals holds the column index arithmetic to / and %: for
// every column shape (s, span) that occurs at k <= 10 — a generator moving
// positions [lo, hi), hi >= lo+2, plus the identity's [0, 0) — and every
// rank r < k!,
// the multiply-high quotient must equal r/s, the remainder (r/s) mod span,
// and index(r) both; the 16-bit per-word reciprocal must equal x/s for
// every x < 128 the word kernel feeds it. k = 10 is left to runs without
// the race detector.
func TestColumnReciprocals(t *testing.T) {
	maxK := MaxExplicitK
	if raceEnabled || testing.Short() {
		maxK = 9
	}
	for k := 1; k <= maxK; k++ {
		n := perm.Factorial(k)
		shapes := [][2]int{{0, 0}}
		for lo := 0; lo < k; lo++ {
			for hi := lo + 2; hi <= k; hi++ { // a generator moves >= 2 positions
				shapes = append(shapes, [2]int{lo, hi})
			}
		}
		for _, sh := range shapes {
			s := perm.Factorial(k - sh[1])
			span := perm.Factorial(k-sh[0]) / s
			c := newColumn(n, s, span)
			us, uspan := uint64(s), uint64(span)
			for r := uint64(0); r < uint64(n); r++ {
				q := r / us
				if c.divS != 0 {
					if got, _ := bits.Mul64(c.divS, r); got != q {
						t.Fatalf("k=%d [%d,%d): %d/%d = %d, reciprocal gives %d", k, sh[0], sh[1], r, s, q, got)
					}
				}
				m := q % uspan
				if c.modSpan != 0 {
					if got, _ := bits.Mul64(c.modSpan*q, uspan); got != m {
						t.Fatalf("k=%d [%d,%d): %d mod %d = %d, reciprocal gives %d", k, sh[0], sh[1], q, span, m, got)
					}
				}
				if got := c.index(r); got != m {
					t.Fatalf("k=%d [%d,%d): index(%d) = %d, want %d", k, sh[0], sh[1], r, got, m)
				}
			}
			if c.wordS != 0 {
				for x := uint64(0); x < 128; x++ {
					if got := x * c.wordS >> 16; got != x/us {
						t.Fatalf("k=%d [%d,%d): %d/%d = %d, word reciprocal gives %d", k, sh[0], sh[1], x, s, x/us, got)
					}
				}
			}
		}
	}
}

// totalAllocs returns the heap allocations of runs calls of fn, counted
// as testing.AllocsPerRun counts them (GOMAXPROCS 1, after a warm-up) but
// not averaged: AllocsPerRun truncates its mean to an integer, which
// reads 0 for an amortized append that allocates once every few calls.
func totalAllocs(runs int, fn func()) float64 {
	return testing.AllocsPerRun(1, func() {
		for i := 0; i < runs; i++ {
			fn()
		}
	})
}

// TestHotpathKernelsDoNotAllocate holds core's //scglint:hotpath kernels
// to zero heap allocations in 10 calls at run time: column.expand on each
// of its four column shapes, column.fill, and bitsetBFS.mergeWords. The
// columns are shapes at k = 7 with zero deltas, which every kernel
// accepts; expandShape names the case of expand's switch each one takes.
func TestHotpathKernelsDoNotAllocate(t *testing.T) {
	const k = 7
	n := perm.Factorial(k)
	words := int((n + 63) / 64)
	cur := make([]uint64, words)
	for i := range cur {
		cur[i] = 0x9249_2492_4924_9249
	}
	cur[words-1] &= 1<<(n%64) - 1
	next := make([]uint64, words)
	expandShape := func(c *column) string {
		switch {
		case c.s >= 64:
			return "runs"
		case c.divS == 0 && c.modSpan == 0:
			return "full span"
		case c.wordS != 0:
			return "word"
		}
		return "tail"
	}
	for _, tc := range []struct {
		shape  string
		lo, hi int // the positions a generator of this shape moves
	}{
		{"runs", 0, 2},
		{"full span", 0, k},
		{"word", 0, 4},
		{"tail", 5, k},
	} {
		s := perm.Factorial(k - tc.hi)
		c := newColumn(n, s, perm.Factorial(k-tc.lo)/s)
		c.delta = make([]int32, c.span)
		if got := expandShape(&c); got != tc.shape {
			t.Fatalf("positions [%d, %d) make a %s column, want %s", tc.lo, tc.hi, got, tc.shape)
		}
		if a := totalAllocs(10, func() { c.expand(next, cur, 0) }); a != 0 {
			t.Errorf("expand (%s) allocates %.0f times in 10 calls, want 0", tc.shape, a)
		}
	}

	// fill: the word-shaped column of transposition (1 4).
	gp := perm.Identity(k)
	gp.Swap(1, 4)
	s := perm.Factorial(k - 4)
	c := newColumn(n, s, n/s)
	c.delta = make([]int32, c.span)
	p, q, scratch := make(perm.Perm, k), make(perm.Perm, k), make([]int, k)
	if a := totalAllocs(10, func() { c.fill(gp, 4, 0, int64(c.span), p, q, scratch) }); a != 0 {
		t.Errorf("fill allocates %.0f times in 10 calls, want 0", a)
	}

	e := &bitsetBFS{
		workers: 2,
		visited: make([]uint64, words),
		cur:     make([]uint64, words),
		wnext:   [][]uint64{make([]uint64, words), make([]uint64, words)},
		d8:      make([]uint8, n),
		counts:  make([]int64, 1),
	}
	merge := func() {
		copy(e.wnext[0], cur)
		copy(e.wnext[1], next)
		clear(e.visited)
		e.mergeWords(0, 0, words, 1)
	}
	if a := totalAllocs(10, merge); a != 0 {
		t.Errorf("mergeWords allocates %.0f times in 10 calls, want 0", a)
	}
	if e.counts[0] == 0 {
		t.Fatal("mergeWords found no states")
	}
}
