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
	"math/bits"
	"strings"

	"repro/internal/gen"
	"repro/internal/perm"
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
func Apply(g gen.Generator, l Label) { g.Apply(perm.Perm(l)) }

// Rank returns the lexicographic rank of l among all labels of the
// signature, in 0..Order-1. It fails when Order does (above 2⁶² labels).
// O(k·symbols).
func (sig Signature) Rank(l Label) (int64, error) {
	if err := sig.Validate(l); err != nil {
		return 0, err
	}
	order, err := sig.Order()
	if err != nil {
		return 0, err
	}
	return sig.rank(l, make([]int, len(sig.Counts)), order), nil
}

// rank is Rank for a label known to be valid, with counts (one slot per
// symbol) as its scratch and order the signature's Order.
//
// It carries m, the number of arrangements of the symbols still to place,
// a running multinomial: with r positions left and c_t copies of symbol t
// among them, m·c_t/r arrangements start with t. So the label's symbol s
// adds m·(Σ_{t<s} c_t)/r to the rank, and placing it sets m to m·c_s/r.
// Every such value is a whole number of arrangements, at most m ≤ 2⁶²,
// but the product before the division can pass 2⁶⁴: share takes it in
// 128 bits.
func (sig Signature) rank(l Label, counts []int, order int64) int64 {
	copy(counts, sig.Counts)
	m := uint64(order)
	var rank uint64
	for i, s := range l {
		r := uint64(len(l) - i)
		below := 0 // copies of symbols smaller than s still to place
		for _, c := range counts[:s-1] {
			below += c
		}
		rank += share(m, below, r)
		m = share(m, counts[s-1], r)
		counts[s-1]--
	}
	return int64(rank)
}

// unrank writes the label of a rank known to be in range into out (K
// slots), with counts (one slot per symbol) as its scratch and order the
// signature's Order. It walks rank's running multinomial (see rank): at
// each position the first symbol s whose m·c_s/r arrangements reach past
// what is left of the rank is placed.
func (sig Signature) unrank(rank int64, out Label, counts []int, order int64) {
	copy(counts, sig.Counts)
	m, left := uint64(order), uint64(rank)
	for i := range out {
		r := uint64(len(out) - i)
		for s, c := range counts {
			ways := share(m, c, r)
			if left < ways {
				out[i] = s + 1
				m = ways
				counts[s]--
				break
			}
			left -= ways
		}
	}
}

// share returns m·c/r, with the product in 128 bits. The callers' quotients
// are at most m, so they fit in 64.
func share(m uint64, c int, r uint64) uint64 {
	hi, lo := bits.Mul64(m, uint64(c))
	q, _ := bits.Div64(hi, lo, r)
	return q
}
