package perm

import "testing"

// fuzzPermSize clamps a raw fuzz byte into a usable symbol count. Rank math
// is exact up to MaxRankK, so the whole legal range is explored.
func fuzzPermSize(raw uint8) int {
	return 1 + int(raw)%MaxRankK
}

// FuzzRankUnrank checks that Lehmer ranking and unranking are exact inverses
// for every reachable (k, rank) pair, that the allocation-light UnrankInto
// variant agrees with Unrank, and that the O(k²) Lehmer oracle gives the
// same rank.
func FuzzRankUnrank(f *testing.F) {
	f.Add(uint8(1), uint64(0))
	f.Add(uint8(4), uint64(23))
	f.Add(uint8(10), uint64(3628799))
	f.Add(uint8(20), uint64(1<<62))
	f.Fuzz(func(t *testing.T, rawK uint8, rawRank uint64) {
		k := fuzzPermSize(rawK)
		rank := int64(rawRank % uint64(Factorial(k)))

		p := Unrank(k, rank)
		if err := p.Validate(); err != nil {
			t.Fatalf("Unrank(%d, %d) = %v is not a permutation: %v", k, rank, p, err)
		}
		if got := p.Rank(); got != rank {
			t.Fatalf("Rank(Unrank(%d, %d)) = %d", k, rank, got)
		}

		dst := make(Perm, k)
		scratch := make([]int, k)
		UnrankInto(k, rank, dst, scratch)
		if !dst.Equal(p) {
			t.Fatalf("UnrankInto(%d, %d) = %v, Unrank = %v", k, rank, dst, p)
		}

		if got := lehmerRank(p); got != rank {
			t.Fatalf("Lehmer code of Unrank(%d, %d) = %d", k, rank, got)
		}
	})
}

// FuzzComposeInverse checks the group laws that the rest of the repository
// leans on: p∘p⁻¹ and p⁻¹∘p are the identity, (p∘q)⁻¹ = q⁻¹∘p⁻¹, and
// ComposeInto agrees with Compose.
func FuzzComposeInverse(f *testing.F) {
	f.Add(uint8(1), uint64(0), uint64(1))
	f.Add(uint8(7), uint64(42), uint64(7))
	f.Add(uint8(20), uint64(1<<40), uint64(3))
	f.Fuzz(func(t *testing.T, rawK uint8, seedP, seedQ uint64) {
		k := fuzzPermSize(rawK)
		p := Random(k, NewRNG(seedP))
		q := Random(k, NewRNG(seedQ))

		if got := p.Compose(p.Inverse()); !got.IsIdentity() {
			t.Fatalf("p∘p⁻¹ = %v for p = %v", got, p)
		}
		if got := p.Inverse().Compose(p); !got.IsIdentity() {
			t.Fatalf("p⁻¹∘p = %v for p = %v", got, p)
		}

		pq := p.Compose(q)
		if err := pq.Validate(); err != nil {
			t.Fatalf("p∘q = %v is not a permutation: %v", pq, err)
		}
		want := q.Inverse().Compose(p.Inverse())
		if got := pq.Inverse(); !got.Equal(want) {
			t.Fatalf("(p∘q)⁻¹ = %v, want q⁻¹∘p⁻¹ = %v", got, want)
		}

		dst := make(Perm, k)
		p.ComposeInto(q, dst)
		if !dst.Equal(pq) {
			t.Fatalf("ComposeInto = %v, Compose = %v", dst, pq)
		}
	})
}
