package perm

import (
	"testing"
	"testing/quick"
)

func TestFactorial(t *testing.T) {
	want := []int64{1, 1, 2, 6, 24, 120, 720, 5040, 40320, 362880, 3628800}
	for k, w := range want {
		if got := Factorial(k); got != w {
			t.Errorf("Factorial(%d) = %d, want %d", k, got, w)
		}
	}
	if Factorial(20) != 2432902008176640000 {
		t.Errorf("Factorial(20) = %d", Factorial(20))
	}
}

func TestRankIdentityIsZero(t *testing.T) {
	for k := 1; k <= 10; k++ {
		if r := Identity(k).Rank(); r != 0 {
			t.Errorf("Rank(Identity(%d)) = %d", k, r)
		}
	}
}

func TestRankUnrankBijectionExhaustive(t *testing.T) {
	// Every rank for k <= 6 round-trips, and ranks are lexicographically
	// monotone.
	for k := 1; k <= 6; k++ {
		n := Factorial(k)
		var prev Perm
		for r := int64(0); r < n; r++ {
			p := Unrank(k, r)
			if err := p.Validate(); err != nil {
				t.Fatalf("Unrank(%d,%d) invalid: %v", k, r, err)
			}
			if got := p.Rank(); got != r {
				t.Fatalf("Rank(Unrank(%d,%d)) = %d", k, r, got)
			}
			if prev != nil && !lexLess(prev, p) {
				t.Fatalf("Unrank not lexicographic at k=%d r=%d: %v !< %v", k, r, prev, p)
			}
			prev = p
		}
	}
}

func lexLess(a, b Perm) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func TestRankUnrankRandomLargeK(t *testing.T) {
	rng := NewRNG(11)
	for k := 7; k <= 12; k++ {
		for trial := 0; trial < 50; trial++ {
			p := Random(k, rng)
			if q := Unrank(k, p.Rank()); !q.Equal(p) {
				t.Fatalf("k=%d round trip failed: %v -> %v", k, p, q)
			}
		}
	}
}

func TestUnrankIntoMatchesUnrank(t *testing.T) {
	rng := NewRNG(12)
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(10)
		r := int64(rng.Intn(int(Factorial(k))))
		want := Unrank(k, r)
		dst := make(Perm, k)
		scratch := make([]int, k)
		UnrankInto(k, r, dst, scratch)
		if !dst.Equal(want) {
			t.Fatalf("UnrankInto(%d,%d) = %v, want %v", k, r, dst, want)
		}
	}
}

// lehmerRank is the oracle for Rank: the O(k²) Lehmer code, counting for
// each position the smaller symbols to its right.
func lehmerRank(p Perm) int64 {
	k := len(p)
	var rank int64
	for i := 0; i < k; i++ {
		smaller := 0
		for j := i + 1; j < k; j++ {
			if p[j] < p[i] {
				smaller++
			}
		}
		rank += int64(smaller) * factorials[k-1-i]
	}
	return rank
}

func TestRankMatchesLehmerExhaustive(t *testing.T) {
	// The popcount kernel agrees with the O(k²) Lehmer code on every
	// permutation for k <= 7.
	for k := 1; k <= 7; k++ {
		ForEach(k, func(p Perm) bool {
			if got, want := p.Rank(), lehmerRank(p); got != want {
				t.Fatalf("Rank(%v) = %d, Lehmer code %d", p, got, want)
			}
			return true
		})
	}
}

func TestRankMatchesLehmerRandomLargeK(t *testing.T) {
	rng := NewRNG(13)
	for k := 8; k <= MaxRankK; k++ {
		for trial := 0; trial < 50; trial++ {
			p := Random(k, rng)
			if got, want := p.Rank(), lehmerRank(p); got != want {
				t.Fatalf("k=%d: Rank(%v) = %d, Lehmer code %d", k, p, got, want)
			}
		}
	}
}

func TestRankPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Rank of %d symbols did not panic", MaxRankK+1)
		}
	}()
	Identity(MaxRankK + 1).Rank()
}

func TestUnrankPanics(t *testing.T) {
	for _, c := range []struct {
		k    int
		rank int64
	}{{0, 0}, {21, 0}, {3, -1}, {3, 6}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Unrank(%d,%d) did not panic", c.k, c.rank)
				}
			}()
			Unrank(c.k, c.rank)
		}()
	}
}

func TestQuickRankRoundTrip(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw%12) + 1
		p := Random(k, NewRNG(seed))
		return Unrank(k, p.Rank()).Equal(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("RNG not deterministic")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 100; i++ {
		if NewRNG(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 42/43 streams suspiciously similar: %d collisions", same)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(7)
	for n := 1; n <= 20; n++ {
		for trial := 0; trial < 200; trial++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d", n, v)
			}
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRandomIsUniformish(t *testing.T) {
	// Chi-squared-lite sanity: each of 3! = 6 permutations of k=3 should
	// appear roughly 1/6 of the time.
	r := NewRNG(99)
	counts := make(map[string]int)
	const trials = 6000
	for i := 0; i < trials; i++ {
		counts[Random(3, r).String()]++
	}
	if len(counts) != 6 {
		t.Fatalf("only %d distinct permutations seen", len(counts))
	}
	for s, c := range counts {
		if c < trials/6-300 || c > trials/6+300 {
			t.Errorf("permutation %s count %d deviates from %d", s, c, trials/6)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(8)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v", v)
		}
	}
}

func BenchmarkRank(b *testing.B) {
	p := Random(10, NewRNG(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Rank()
	}
}

func BenchmarkRankK20(b *testing.B) {
	p := Random(20, NewRNG(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Rank()
	}
}

func BenchmarkUnrankInto(b *testing.B) {
	dst := make(Perm, 10)
	scratch := make([]int, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		UnrankInto(10, int64(i)%Factorial(10), dst, scratch)
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

// TestHotpathKernelsDoNotAllocate holds this package's three
// //scglint:hotpath kernels to zero heap allocations in 100 calls at run
// time.
func TestHotpathKernelsDoNotAllocate(t *testing.T) {
	const k = 10
	p, q := Unrank(k, 1234567), Unrank(k, 987654)
	dst := make(Perm, k)
	scratch := make([]int, k)
	var rank int64
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"Rank", func() { rank += p.Rank() }},
		{"UnrankInto", func() { UnrankInto(k, 3210987, dst, scratch) }},
		{"ComposeInto", func() { p.ComposeInto(q, dst) }},
	} {
		if n := totalAllocs(100, tc.call); n != 0 {
			t.Errorf("%s allocates %.0f times in 100 calls, want 0", tc.name, n)
		}
	}
	if rank == 0 {
		t.Fatal("Rank of a non-identity permutation is 0")
	}
}
