package perm

import (
	"testing"
	"testing/quick"
)

func TestIdentity(t *testing.T) {
	for k := 1; k <= 10; k++ {
		p := Identity(k)
		if !p.IsIdentity() {
			t.Fatalf("Identity(%d) = %v not recognized as identity", k, p)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Identity(%d) invalid: %v", k, err)
		}
		if p.K() != k {
			t.Fatalf("Identity(%d).K() = %d", k, p.K())
		}
	}
}

func TestIdentityPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Identity(0) did not panic")
		}
	}()
	Identity(0)
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		in []int
		ok bool
	}{
		{[]int{1}, true},
		{[]int{2, 1}, true},
		{[]int{5, 3, 4, 2, 6, 7, 1}, true},
		{[]int{}, false},
		{[]int{0, 1}, false},
		{[]int{1, 3}, false},
		{[]int{1, 1}, false},
		{[]int{2, 3}, false},
	}
	for _, c := range cases {
		_, err := New(c.in)
		if (err == nil) != c.ok {
			t.Errorf("New(%v): err=%v, want ok=%v", c.in, err, c.ok)
		}
	}
}

func TestParse(t *testing.T) {
	p, err := Parse("5342671")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := MustNew([]int{5, 3, 4, 2, 6, 7, 1})
	if !p.Equal(want) {
		t.Fatalf("Parse = %v, want %v", p, want)
	}
	p2, err := Parse("10 3 1 2 9 8 7 6 5 4")
	if err != nil {
		t.Fatalf("Parse spaced: %v", err)
	}
	if p2.K() != 10 || p2[0] != 10 {
		t.Fatalf("Parse spaced = %v", p2)
	}
	for _, bad := range []string{"", "012", "1a2", "1,2,x"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	rng := NewRNG(1)
	for k := 1; k <= 12; k++ {
		for trial := 0; trial < 20; trial++ {
			p := Random(k, rng)
			q, err := Parse(p.String())
			if err != nil {
				t.Fatalf("k=%d: Parse(String) error: %v", k, err)
			}
			if !p.Equal(q) {
				t.Fatalf("k=%d: round trip %v -> %v", k, p, q)
			}
		}
	}
}

func TestComposeInverse(t *testing.T) {
	rng := NewRNG(2)
	for k := 1; k <= 10; k++ {
		for trial := 0; trial < 50; trial++ {
			p := Random(k, rng)
			inv := p.Inverse()
			if !p.Compose(inv).IsIdentity() {
				t.Fatalf("k=%d: p∘p⁻¹ != id for p=%v", k, p)
			}
			if !inv.Compose(p).IsIdentity() {
				t.Fatalf("k=%d: p⁻¹∘p != id for p=%v", k, p)
			}
		}
	}
}

func TestComposeAssociative(t *testing.T) {
	rng := NewRNG(3)
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(9)
		a, b, c := Random(k, rng), Random(k, rng), Random(k, rng)
		left := a.Compose(b).Compose(c)
		right := a.Compose(b.Compose(c))
		if !left.Equal(right) {
			t.Fatalf("associativity failed: (a∘b)∘c=%v a∘(b∘c)=%v", left, right)
		}
	}
}

func TestComposeIdentityNeutral(t *testing.T) {
	rng := NewRNG(4)
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(9)
		p := Random(k, rng)
		id := Identity(k)
		if !p.Compose(id).Equal(p) || !id.Compose(p).Equal(p) {
			t.Fatalf("identity not neutral for %v", p)
		}
	}
}

func TestPositionOfAt(t *testing.T) {
	p := MustNew([]int{5, 3, 4, 2, 6, 7, 1})
	for pos := 1; pos <= 7; pos++ {
		v := p[pos-1]
		if p.PositionOf(v) != pos {
			t.Fatalf("PositionOf(p[%d]) = %d", pos-1, p.PositionOf(v))
		}
	}
	if p.PositionOf(99) != 0 {
		t.Fatal("PositionOf(absent) != 0")
	}
}

func TestPrefixRotations(t *testing.T) {
	p := MustNew([]int{1, 2, 3, 4, 5})
	p.RotateLeftPrefix(4)
	if !p.Equal(MustNew([]int{2, 3, 4, 1, 5})) {
		t.Fatalf("RotateLeftPrefix(4) = %v", p)
	}
	p.RotateRightPrefix(4)
	if !p.Equal(MustNew([]int{1, 2, 3, 4, 5})) {
		t.Fatalf("RotateRightPrefix(4) did not undo: %v", p)
	}
	p.RotateLeftPrefix(1) // no-op
	if !p.IsIdentity() {
		t.Fatalf("RotateLeftPrefix(1) changed p: %v", p)
	}
}

func TestPrefixRotationsInverse(t *testing.T) {
	rng := NewRNG(5)
	for trial := 0; trial < 100; trial++ {
		k := 2 + rng.Intn(9)
		p := Random(k, rng)
		orig := p.Clone()
		m := 1 + rng.Intn(k)
		p.RotateLeftPrefix(m)
		p.RotateRightPrefix(m)
		if !p.Equal(orig) {
			t.Fatalf("rotate left+right prefix m=%d not identity: %v vs %v", m, p, orig)
		}
	}
}

func TestRotateSuffixRight(t *testing.T) {
	p := MustNew([]int{1, 2, 3, 4, 5, 6, 7})
	p.RotateSuffixRight(2)
	if !p.Equal(MustNew([]int{1, 6, 7, 2, 3, 4, 5})) {
		t.Fatalf("RotateSuffixRight(2) = %v", p)
	}
	p.RotateSuffixRight(4) // total shift 6 ≡ 0 mod 6
	if !p.IsIdentity() {
		t.Fatalf("shift sum 6 mod 6 != id: %v", p)
	}
	q := MustNew([]int{3, 1, 2})
	q.RotateSuffixRight(0)
	if !q.Equal(MustNew([]int{3, 1, 2})) {
		t.Fatalf("RotateSuffixRight(0) changed q: %v", q)
	}
}

func TestSwapBlocks(t *testing.T) {
	p := MustNew([]int{1, 2, 3, 4, 5, 6, 7})
	p.SwapBlocks(2, 6, 2) // swap super-symbols (2,3) and (6,7)
	if !p.Equal(MustNew([]int{1, 6, 7, 4, 5, 2, 3})) {
		t.Fatalf("SwapBlocks = %v", p)
	}
	p.SwapBlocks(2, 6, 2)
	if !p.IsIdentity() {
		t.Fatalf("SwapBlocks not involutive: %v", p)
	}
}

func TestSwapBlocksPanicsOnOverlap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping SwapBlocks did not panic")
		}
	}()
	p := Identity(7)
	p.SwapBlocks(2, 3, 2)
}

func TestCyclesAndSign(t *testing.T) {
	p := MustNew([]int{2, 1, 3, 5, 4})
	cycles := p.Cycles()
	if len(cycles) != 3 {
		t.Fatalf("Cycles = %v", cycles)
	}
	if p.Sign() != 1 {
		t.Fatalf("Sign of two transpositions should be +1, got %d", p.Sign())
	}
	q := MustNew([]int{2, 1})
	if q.Sign() != -1 {
		t.Fatalf("Sign of single transposition = %d", q.Sign())
	}
	if !Identity(6).IsIdentity() || Identity(6).Sign() != 1 {
		t.Fatal("identity sign")
	}
}

func TestSignMultiplicative(t *testing.T) {
	rng := NewRNG(6)
	for trial := 0; trial < 100; trial++ {
		k := 2 + rng.Intn(8)
		a, b := Random(k, rng), Random(k, rng)
		if a.Compose(b).Sign() != a.Sign()*b.Sign() {
			t.Fatalf("sign not multiplicative for %v, %v", a, b)
		}
	}
}

func TestDisplacement(t *testing.T) {
	if Identity(7).Displacement() != 0 {
		t.Fatal("identity displacement != 0")
	}
	p := MustNew([]int{2, 1, 3, 4, 5, 6, 7})
	if p.Displacement() != 2 {
		t.Fatalf("Displacement = %d, want 2", p.Displacement())
	}
}

func TestCloneIndependence(t *testing.T) {
	p := Identity(5)
	q := p.Clone()
	q.Swap(1, 2)
	if !p.IsIdentity() {
		t.Fatal("Clone is not independent")
	}
}

// Property: composing then inverting returns to start (testing/quick).
func TestQuickComposeInverseRoundTrip(t *testing.T) {
	rng := NewRNG(7)
	f := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw%9) + 1
		local := NewRNG(seed)
		p := Random(k, local)
		g := Random(k, rng)
		return p.Compose(g).Compose(g.Inverse()).Equal(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Inverse is an involution.
func TestQuickInverseInvolution(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw%10) + 1
		p := Random(k, NewRNG(seed))
		return p.Inverse().Inverse().Equal(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNextPermutationMatchesUnrank(t *testing.T) {
	for k := 1; k <= 6; k++ {
		p := Identity(k)
		for r := int64(0); ; r++ {
			want := Unrank(k, r)
			if !p.Equal(want) {
				t.Fatalf("k=%d rank %d: iterator %v, unrank %v", k, r, p, want)
			}
			if !p.NextPermutation() {
				if r != Factorial(k)-1 {
					t.Fatalf("k=%d: iterator stopped at rank %d", k, r)
				}
				break
			}
		}
	}
}

func TestForEach(t *testing.T) {
	count := 0
	ForEach(5, func(p Perm) bool {
		count++
		return true
	})
	if count != 120 {
		t.Fatalf("ForEach visited %d", count)
	}
	// Early stop.
	count = 0
	ForEach(5, func(p Perm) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("early stop visited %d", count)
	}
}

// Sign returns +1 for even permutations and -1 for odd permutations.
func (p Perm) Sign() int {
	transpositions := 0
	for _, c := range p.Cycles() {
		transpositions += len(c) - 1
	}
	if transpositions%2 == 0 {
		return 1
	}
	return -1
}

// Cycles returns the cycle decomposition of p as slices of symbols. Fixed
// points are included as length-1 cycles; cycles are reported with their
// smallest symbol first, in increasing order of that symbol.
func (p Perm) Cycles() [][]int {
	k := len(p)
	seen := make([]bool, k+1)
	var cycles [][]int
	for start := 1; start <= k; start++ {
		if seen[start] {
			continue
		}
		cycle := []int{start}
		seen[start] = true
		// Follow the mapping position->symbol: symbol v sits at position
		// PositionOf(v); the cycle structure of the function i -> p[i-1].
		for v := p[start-1]; v != start; v = p[v-1] {
			cycle = append(cycle, v)
			seen[v] = true
		}
		cycles = append(cycles, cycle)
	}
	return cycles
}
