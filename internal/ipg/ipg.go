// Package ipg implements index-permutation graphs: state-transition graphs
// of ball-arrangement games in which several balls carry the same number
// (§4.3: "the major difference between super Cayley graphs and
// super-index-permutation graphs is that some of the balls for a
// super-index-permutation graph are assigned the same numbers"; also [31,
// 34, 36, 37]). Where a super Cayley graph is a Cayley graph of S_k, an
// index-permutation graph is the Schreier quotient by the subgroup that
// permutes identically-numbered balls: nodes are multiset permutations, and
// the node count drops from k! to the multinomial k!/(c_1!·c_2!·…).
//
// The flagship instance is the super-index-permutation graph SIP(l,n): the
// Balls-to-Boxes game where the n balls of each color are
// indistinguishable. Its clusters (nuclei) shrink relative to the network
// size, which is how the paper obtains optimal intercluster diameters for
// larger clusters.
package ipg

import (
	"fmt"
	"strings"

	"repro/internal/gen"
)

// Label is a multiset permutation: position i holds symbol Label[i] (1-based
// symbols; repetitions allowed).
type Label []int

// Signature fixes the multiset: Counts[s-1] copies of symbol s.
type Signature struct {
	Counts []int
}

// NewSignature validates symbol counts (every symbol 1..len(counts) must
// appear at least once).
func NewSignature(counts []int) (Signature, error) {
	if len(counts) == 0 {
		return Signature{}, fmt.Errorf("ipg: NewSignature: empty counts")
	}
	for s, c := range counts {
		if c < 1 {
			return Signature{}, fmt.Errorf("ipg: NewSignature: symbol %d has count %d", s+1, c)
		}
	}
	return Signature{Counts: append([]int(nil), counts...)}, nil
}

// K returns the total number of positions (balls).
func (sig Signature) K() int {
	k := 0
	for _, c := range sig.Counts {
		k += c
	}
	return k
}

// Symbols returns the number of distinct symbols.
func (sig Signature) Symbols() int { return len(sig.Counts) }

// Order returns the number of distinct labels, the multinomial
// k! / (c_1!·c_2!·…). It errors if the value overflows int64.
func (sig Signature) Order() (int64, error) {
	// Multiplicative formula: product over symbols of C(remaining, c_s).
	order := int64(1)
	remaining := sig.K()
	for _, c := range sig.Counts {
		ways, err := binomial(remaining, c)
		if err != nil {
			return 0, err
		}
		if order > (int64(1)<<62)/ways {
			return 0, fmt.Errorf("ipg: Order: overflow")
		}
		order *= ways
		remaining -= c
	}
	return order, nil
}

func binomial(n, k int) (int64, error) {
	if k < 0 || k > n {
		return 0, nil
	}
	if k > n-k {
		k = n - k
	}
	res := int64(1)
	for i := 1; i <= k; i++ {
		if res > (int64(1)<<62)/int64(n-k+i) {
			return 0, fmt.Errorf("ipg: binomial(%d,%d): overflow", n, k)
		}
		res = res * int64(n-k+i) / int64(i)
	}
	return res, nil
}

// Sorted returns the goal label: symbols in non-decreasing order.
func (sig Signature) Sorted() Label {
	out := make(Label, 0, sig.K())
	for s, c := range sig.Counts {
		for i := 0; i < c; i++ {
			out = append(out, s+1)
		}
	}
	return out
}

// Validate checks that l is a permutation of the signature's multiset.
func (sig Signature) Validate(l Label) error {
	if len(l) != sig.K() {
		return fmt.Errorf("ipg: label has %d positions, signature wants %d", len(l), sig.K())
	}
	seen := make([]int, sig.Symbols()+1)
	for _, s := range l {
		if s < 1 || s > sig.Symbols() {
			return fmt.Errorf("ipg: symbol %d out of range 1..%d", s, sig.Symbols())
		}
		seen[s]++
	}
	for s := 1; s <= sig.Symbols(); s++ {
		if seen[s] != sig.Counts[s-1] {
			return fmt.Errorf("ipg: symbol %d appears %d times, want %d", s, seen[s], sig.Counts[s-1])
		}
	}
	return nil
}

// Clone copies the label.
func (l Label) Clone() Label { return append(Label(nil), l...) }

// Equal reports label equality.
func (l Label) Equal(m Label) bool {
	if len(l) != len(m) {
		return false
	}
	for i := range l {
		if l[i] != m[i] {
			return false
		}
	}
	return true
}

// String renders the label compactly (digits when symbols <= 9).
func (l Label) String() string {
	var b strings.Builder
	wide := false
	for _, s := range l {
		if s > 9 {
			wide = true
			break
		}
	}
	for i, s := range l {
		if wide && i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", s)
	}
	return b.String()
}

// Apply performs generator g's position rearrangement on the label in
// place. All gen operators are position permutations, so they act on
// multiset labels exactly as on permutations.
func Apply(g gen.Generator, l Label) {
	// Reuse the generator's permutation action by treating the label as raw
	// positions: V[i] = U[gp[i]-1].
	gp := g.AsPerm(len(l))
	tmp := make([]int, len(l))
	for i, src := range gp {
		tmp[i] = l[src-1]
	}
	copy(l, tmp)
}

// Rank returns the lexicographic rank of l among all labels of the
// signature, in 0..Order-1. O(k·symbols).
func (sig Signature) Rank(l Label) (int64, error) {
	if err := sig.Validate(l); err != nil {
		return 0, err
	}
	return sig.rank(l, make([]int, len(sig.Counts)))
}

// rank is Rank for a label known to be valid, with counts (one slot per
// symbol) as its scratch.
func (sig Signature) rank(l Label, counts []int) (int64, error) {
	copy(counts, sig.Counts)
	remaining := len(l)
	var rank int64
	for _, s := range l {
		// Count arrangements starting with a smaller symbol.
		for t := 1; t < s; t++ {
			if counts[t-1] == 0 {
				continue
			}
			counts[t-1]--
			ways, err := arrangements(counts, remaining-1)
			if err != nil {
				return 0, err
			}
			counts[t-1]++
			rank += ways
		}
		counts[s-1]--
		remaining--
	}
	return rank, nil
}

// Unrank reconstructs the label with the given lexicographic rank.
func (sig Signature) Unrank(rank int64) (Label, error) {
	order, err := sig.Order()
	if err != nil {
		return nil, err
	}
	if rank < 0 || rank >= order {
		return nil, fmt.Errorf("ipg: Unrank: rank %d out of range 0..%d", rank, order-1)
	}
	out := make(Label, sig.K())
	if err := sig.unrank(rank, out, make([]int, len(sig.Counts))); err != nil {
		return nil, err
	}
	return out, nil
}

// unrank writes the label of a rank known to be in range into out (K
// slots), with counts (one slot per symbol) as its scratch.
func (sig Signature) unrank(rank int64, out Label, counts []int) error {
	copy(counts, sig.Counts)
	remaining := len(out)
	for i := range out {
		for s := 1; s <= len(counts); s++ {
			if counts[s-1] == 0 {
				continue
			}
			counts[s-1]--
			ways, err := arrangements(counts, remaining-1)
			if err != nil {
				return err
			}
			if rank < ways {
				out[i] = s
				remaining--
				break
			}
			rank -= ways
			counts[s-1]++
		}
	}
	return nil
}

// arrangements counts multiset permutations of the given residual counts
// over `total` positions.
func arrangements(counts []int, total int) (int64, error) {
	res := int64(1)
	remaining := total
	for _, c := range counts {
		if c == 0 {
			continue
		}
		ways, err := binomial(remaining, c)
		if err != nil {
			return 0, err
		}
		if ways != 0 && res > (int64(1)<<62)/ways {
			return 0, fmt.Errorf("ipg: arrangements: overflow")
		}
		res *= ways
		remaining -= c
	}
	return res, nil
}
