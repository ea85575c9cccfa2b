// Package perm implements the permutation algebra that underlies the
// ball-arrangement game and every super Cayley graph in this repository.
//
// A permutation of k symbols is the label of a network node (Yeh &
// Varvarigos, ICPP 2001, §3): position i holds the symbol u_i, exactly as a
// game configuration records which ball occupies which slot. The package
// provides composition, inversion, Lehmer-code ranking (used to index the k!
// states of a game during exhaustive breadth-first search), cycle structure,
// and deterministic random sampling.
//
// # Conventions
//
// Symbols are the integers 1..k. A Perm p stores the symbol at position i+1
// in p[i]; the identity permutation of k symbols is [1 2 ... k]. Positions
// and dimensions in the paper are 1-based; this package keeps the same
// 1-based vocabulary in its exported API while storing 0-based slices.
package perm

import (
	"fmt"
	"strings"
)

// Perm is a permutation of the symbols 1..k, stored as the sequence of
// symbols by position: p[i] is the symbol at position i+1. A Perm doubles as
// a node label in a super Cayley graph and as a configuration of the
// ball-arrangement game.
type Perm []int

// Identity returns the identity permutation of k symbols, 1 2 ... k.
// It panics if k < 1.
func Identity(k int) Perm {
	if k < 1 {
		panic(fmt.Sprintf("perm: Identity(%d): k must be >= 1", k))
	}
	p := make(Perm, k)
	for i := range p {
		p[i] = i + 1
	}
	return p
}

// New copies symbols into a fresh Perm and validates it. The input must be a
// permutation of 1..len(symbols).
func New(symbols []int) (Perm, error) {
	p := make(Perm, len(symbols))
	copy(p, symbols)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustNew is like New but panics on invalid input. It is intended for tests
// and package-level literals.
func MustNew(symbols []int) Perm {
	p, err := New(symbols)
	if err != nil {
		panic(err)
	}
	return p
}

// Parse decodes a compact permutation literal such as "5342671" (one digit
// per symbol, as used in the paper's figures) or a space-separated form such
// as "10 3 1 2 9 8 7 6 5 4" for k >= 10.
func Parse(s string) (Perm, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("perm: Parse: empty input")
	}
	var symbols []int
	if strings.ContainsAny(s, " \t,") {
		fields := strings.FieldsFunc(s, func(r rune) bool { return r == ' ' || r == '\t' || r == ',' })
		for _, f := range fields {
			var v int
			if _, err := fmt.Sscanf(f, "%d", &v); err != nil {
				return nil, fmt.Errorf("perm: Parse: bad token %q", f)
			}
			symbols = append(symbols, v)
		}
	} else {
		for _, r := range s {
			if r < '1' || r > '9' {
				return nil, fmt.Errorf("perm: Parse: bad digit %q (use spaces for k >= 10)", r)
			}
			symbols = append(symbols, int(r-'0'))
		}
	}
	return New(symbols)
}

// ParseInto decodes the compact digit form (one digit per symbol, k <= 9)
// into dst without allocating, returning the number of symbols written. It
// is the warm-route fast path of Parse: inputs that are not pure digit
// strings of length <= len(dst) — including the space-separated k >= 10
// form — report ok = false and the caller falls back to Parse. ParseInto
// does not validate that the digits form a permutation; pair it with
// Valid.
func ParseInto(s string, dst Perm) (n int, ok bool) {
	if len(s) == 0 || len(s) > len(dst) || len(s) > 9 {
		return 0, false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '1' || c > '9' {
			return 0, false
		}
		dst[i] = int(c - '0')
	}
	return len(s), true
}

// Valid reports whether p is a genuine permutation of 1..len(p), using a
// 64-bit seen-mask instead of Validate's allocated bool slice; k must be
// <= 64 (always true below MaxRankK). It is the allocation-free request
// validation of the route hot path.
func (p Perm) Valid() bool {
	k := len(p)
	if k == 0 || k > 64 {
		return false
	}
	var mask uint64
	for _, v := range p {
		if v < 1 || v > k {
			return false
		}
		bit := uint64(1) << uint(v-1)
		if mask&bit != 0 {
			return false
		}
		mask |= bit
	}
	return true
}

// Validate reports whether p is a genuine permutation of 1..len(p).
func (p Perm) Validate() error {
	k := len(p)
	if k == 0 {
		return fmt.Errorf("perm: empty permutation")
	}
	seen := make([]bool, k+1)
	for i, v := range p {
		if v < 1 || v > k {
			return fmt.Errorf("perm: symbol %d at position %d out of range 1..%d", v, i+1, k)
		}
		if seen[v] {
			return fmt.Errorf("perm: symbol %d repeated", v)
		}
		seen[v] = true
	}
	return nil
}

// K returns the number of symbols.
func (p Perm) K() int { return len(p) }

// Clone returns an independent copy of p.
func (p Perm) Clone() Perm {
	q := make(Perm, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q are the same permutation.
func (p Perm) Equal(q Perm) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// IsIdentity reports whether p is the identity permutation.
func (p Perm) IsIdentity() bool {
	for i, v := range p {
		if v != i+1 {
			return false
		}
	}
	return true
}

// PositionOf returns the 1-based position of symbol v, or 0 if v is not
// present (which cannot happen for a valid Perm of sufficient size).
func (p Perm) PositionOf(v int) int {
	for i, s := range p {
		if s == v {
			return i + 1
		}
	}
	return 0
}

// String renders p compactly: digits are concatenated when k <= 9 (matching
// the paper's figures), otherwise symbols are space-separated.
func (p Perm) String() string {
	if len(p) <= 9 {
		var b strings.Builder
		for _, v := range p {
			b.WriteByte(byte('0' + v))
		}
		return b.String()
	}
	parts := make([]string, len(p))
	for i, v := range p {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return strings.Join(parts, " ")
}

// Compose returns the permutation that results from applying q after p when
// both are viewed as arrangements rewritten in one step: r[i] = p[q[i]-1].
// In the game reading, q rearranges the slots of the current configuration
// p, exactly how a generator acts on a node label. Compose allocates; see
// ComposeInto for the allocation-free variant used by hot loops.
func (p Perm) Compose(q Perm) Perm {
	r := make(Perm, len(p))
	p.ComposeInto(q, r)
	return r
}

// ComposeInto writes p∘q into dst, which must have the same length as p and
// q and must not alias either.
//
//scglint:hotpath generator application: one compose per edge probe in BFS hot loops
func (p Perm) ComposeInto(q, dst Perm) {
	if len(p) != len(q) || len(dst) != len(p) {
		panic("perm: ComposeInto: length mismatch")
	}
	for i, qi := range q {
		dst[i] = p[qi-1]
	}
}

// Inverse returns the permutation q with q[p[i]-1] = i+1, i.e. the
// arrangement that undoes p.
func (p Perm) Inverse() Perm {
	q := make(Perm, len(p))
	for i, v := range p {
		q[v-1] = i + 1
	}
	return q
}

// Swap exchanges the symbols at 1-based positions i and j in place.
func (p Perm) Swap(i, j int) {
	p[i-1], p[j-1] = p[j-1], p[i-1]
}

// RotateLeftPrefix cyclically shifts the leftmost m symbols of p one
// position to the left, in place: u1 u2 ... um -> u2 ... um u1. This is the
// action of the insertion generator I_m.
func (p Perm) RotateLeftPrefix(m int) {
	if m < 1 || m > len(p) {
		panic(fmt.Sprintf("perm: RotateLeftPrefix(%d): out of range 1..%d", m, len(p)))
	}
	first := p[0]
	copy(p[0:m-1], p[1:m])
	p[m-1] = first
}

// RotateRightPrefix cyclically shifts the leftmost m symbols of p one
// position to the right, in place: u1 ... um -> um u1 ... u(m-1). This is
// the action of the selection generator I_m^{-1}.
func (p Perm) RotateRightPrefix(m int) {
	if m < 1 || m > len(p) {
		panic(fmt.Sprintf("perm: RotateRightPrefix(%d): out of range 1..%d", m, len(p)))
	}
	last := p[m-1]
	copy(p[1:m], p[0:m-1])
	p[0] = last
}

// RotateSuffixRight cyclically shifts the rightmost len(p)-1 symbols of p to
// the right by sh positions, in place, leaving position 1 untouched. This is
// the action of the rotation super generator R^i with sh = i*n.
func (p Perm) RotateSuffixRight(sh int) {
	m := len(p) - 1
	if m <= 0 {
		return
	}
	sh %= m
	if sh < 0 {
		sh += m
	}
	if sh == 0 {
		return
	}
	// Triple reversal keeps the rotation in place with no scratch buffer,
	// which keeps rotation-generator application allocation-free on the
	// route hot path.
	s := p[1:]
	reverseInts(s)
	reverseInts(s[:sh])
	reverseInts(s[sh:])
}

func reverseInts(s []int) {
	for a, b := 0, len(s)-1; a < b; a, b = a+1, b-1 {
		s[a], s[b] = s[b], s[a]
	}
}

// SwapBlocks exchanges the n-symbol block starting at 1-based position a
// with the n-symbol block starting at 1-based position b, in place. The
// blocks must not overlap. This is the action of the swap super generator.
func (p Perm) SwapBlocks(a, b, n int) {
	if a > b {
		a, b = b, a
	}
	if a < 1 || b+n-1 > len(p) || a+n-1 >= b {
		panic(fmt.Sprintf("perm: SwapBlocks(%d,%d,%d): invalid blocks for k=%d", a, b, n, len(p)))
	}
	for i := 0; i < n; i++ {
		p[a-1+i], p[b-1+i] = p[b-1+i], p[a-1+i]
	}
}

// Displacement returns the number of positions holding a symbol different
// from the identity's, i.e. the Hamming distance from the identity. The
// paper calls such symbols "dirty balls".
func (p Perm) Displacement() int {
	d := 0
	for i, v := range p {
		if v != i+1 {
			d++
		}
	}
	return d
}

// NextPermutation advances p to its lexicographic successor in place,
// returning false (and leaving p as the last permutation) when p is already
// the lexicographically largest arrangement. Iterating from Identity(k)
// visits all k! permutations in rank order.
func (p Perm) NextPermutation() bool {
	k := len(p)
	i := k - 2
	for i >= 0 && p[i] >= p[i+1] {
		i--
	}
	if i < 0 {
		return false
	}
	j := k - 1
	for p[j] <= p[i] {
		j--
	}
	p[i], p[j] = p[j], p[i]
	for a, b := i+1, k-1; a < b; a, b = a+1, b-1 {
		p[a], p[b] = p[b], p[a]
	}
	return true
}

// ForEach calls fn for every permutation of k symbols in lexicographic
// order, reusing one buffer (fn must not retain it). fn returning false
// stops the iteration early.
func ForEach(k int, fn func(Perm) bool) {
	p := Identity(k)
	for {
		if !fn(p) {
			return
		}
		if !p.NextPermutation() {
			return
		}
	}
}
