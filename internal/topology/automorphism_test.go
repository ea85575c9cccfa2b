package topology

import (
	"testing"

	"repro/internal/perm"
)

// automorphismSamples is the number of states each check draws per
// instance.
const automorphismSamples = 10000

// conjugators draws relabellings σ ≠ identity of k symbols for an
// instance, from a group whose every member maps the generator set onto
// itself under conjugation.
type conjugators func(k int, r *perm.RNG) perm.Perm

// fixOne draws σ with σ(1) = 1: for star, σ(1 j)σ⁻¹ = (1 σ(j)).
func fixOne(k int, r *perm.RNG) perm.Perm {
	rest := perm.Random(k-1, r)
	sigma := make(perm.Perm, k)
	sigma[0] = 1
	for i, v := range rest {
		sigma[i+1] = v + 1
	}
	return sigma
}

// anySymbols draws any σ: for the transposition network,
// σ(i j)σ⁻¹ = (σ(i) σ(j)).
func anySymbols(k int, r *perm.RNG) perm.Perm { return perm.Random(k, r) }

// boxesAndOffsets draws σ for MS(l,n), whose positions are 1 (the ball
// outside the boxes) and, for box b and offset o < n, (b−1)·n + 2 + o. σ
// fixes 1, moves boxes 2..l by a permutation π, and moves offsets by one
// permutation τ inside every box, so σ T_j σ⁻¹ = T_{τ(j−2)+2} and
// σ S_i σ⁻¹ = S_{π(i)}.
func boxesAndOffsets(l, n int) conjugators {
	return func(k int, r *perm.RNG) perm.Perm {
		boxes := perm.Random(l-1, r) // π on boxes 2..l
		offsets := perm.Random(n, r) // τ
		sigma := make(perm.Perm, k)
		sigma[0] = 1
		for b := 1; b <= l; b++ {
			to := b
			if b > 1 {
				to = boxes[b-2] + 1
			}
			for o := 0; o < n; o++ {
				sigma[(b-1)*n+1+o] = (to-1)*n + 2 + offsets[o] - 1
			}
		}
		return sigma
	}
}

// conjugate returns σ∘x∘σ⁻¹.
func conjugate(sigma, x, sigmaInv perm.Perm) perm.Perm {
	return sigma.Compose(x).Compose(sigmaInv)
}

// TestExactDistancesUnderAutomorphisms holds the exact distance tables to
// two metamorphic relations that need no oracle. A relabelling σ that maps
// the generator set onto itself under conjugation is a graph automorphism
// fixing the identity (Ganesan, arXiv 1703.08109), so dist(σxσ⁻¹) =
// dist(x) for every state x: star admits every σ fixing symbol 1, the
// transposition network every σ, and MS(l,n) the σ that permute boxes
// 2..l and apply one offset permutation inside every box. And a family
// whose generator set is inverse-closed has dist(x⁻¹) = dist(x). Each
// check samples automorphismSamples states at k = 10 (k ≤ 8 under -short
// and -race), checks that every drawn σ does map the generators onto
// themselves, and fails if no sampled state moves.
func TestExactDistancesUnderAutomorphisms(t *testing.T) {
	k, ms := 10, [][2]int{{3, 3}, {9, 1}}
	if testing.Short() || raceEnabled {
		k, ms = 8, [][2]int{{7, 1}}
	}
	type instance struct {
		fam  Family
		l, n int
		conj conjugators // nil: no conjugation check
	}
	var insts []instance
	for _, fam := range AllFamilies() {
		l, n := 1, k-1
		if fam.IsSuperCayley() {
			l, n = ms[0][0], ms[0][1]
		}
		var conj conjugators
		switch fam {
		case Star:
			conj = fixOne
		case TranspositionNet:
			conj = anySymbols
		case MS:
			conj = boxesAndOffsets(l, n)
		}
		insts = append(insts, instance{fam, l, n, conj})
	}
	for _, ln := range ms[1:] {
		insts = append(insts, instance{MS, ln[0], ln[1], boxesAndOffsets(ln[0], ln[1])})
	}
	if testing.Short() || raceEnabled {
		// Both kinds of MS relabelling, at k = 7.
		insts = append(insts, instance{MS, 3, 2, boxesAndOffsets(3, 2)})
	}

	for _, in := range insts {
		nw, err := New(in.fam, in.l, in.n)
		if err != nil {
			t.Fatal(err)
		}
		undirected := nw.Graph().GeneratorSet().IsInverseClosed()
		if in.conj == nil && !undirected {
			continue
		}
		prof, err := nw.Graph().ExactProfile()
		nw.Graph().DropNeighborTable()
		if err != nil {
			t.Fatal(err)
		}
		dist := func(x perm.Perm) int32 { return prof.Dist.At(x.Rank()) }
		kk := nw.K()
		r := perm.NewRNG(uint64(kk)<<8 | uint64(in.fam))

		if undirected {
			moved := 0
			for i := 0; i < automorphismSamples; i++ {
				x := perm.Random(kk, r)
				inv := x.Inverse()
				if d, di := dist(x), dist(inv); d != di {
					t.Fatalf("%s: dist(%v) = %d, dist of its inverse %v = %d", nw.Name(), x, d, inv, di)
				}
				if !inv.Equal(x) {
					moved++
				}
			}
			if moved == 0 {
				t.Fatalf("%s: no sampled state differs from its inverse", nw.Name())
			}
			t.Logf("%s: %d of %d sampled states differ from their inverses, distances kept", nw.Name(), moved, automorphismSamples)
		}

		if in.conj == nil {
			continue
		}
		gens := nw.Graph().GeneratorSet().Perms()
		isGen := map[int64]bool{}
		for _, g := range gens {
			isGen[g.Rank()] = true
		}
		moved := 0
		for i := 0; i < automorphismSamples; i++ {
			sigma := in.conj(kk, r)
			for sigma.IsIdentity() {
				sigma = in.conj(kk, r)
			}
			sigmaInv := sigma.Inverse()
			for _, g := range gens {
				if !isGen[conjugate(sigma, g, sigmaInv).Rank()] {
					t.Fatalf("%s: σ = %v maps generator %v off the generator set", nw.Name(), sigma, g)
				}
			}
			x := perm.Random(kk, r)
			y := conjugate(sigma, x, sigmaInv)
			if d, dy := dist(x), dist(y); d != dy {
				t.Fatalf("%s: dist(%v) = %d, but under σ = %v, dist(%v) = %d", nw.Name(), x, d, sigma, y, dy)
			}
			if !y.Equal(x) {
				moved++
			}
		}
		if moved == 0 {
			t.Fatalf("%s: no sampled state moves under its σ", nw.Name())
		}
		t.Logf("%s: %d of %d sampled states moved under σ, distances kept", nw.Name(), moved, automorphismSamples)
	}
}
