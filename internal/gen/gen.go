// Package gen defines the generator operators from which every super Cayley
// graph in the paper is built (Yeh & Varvarigos, ICPP 2001, §3.1 and §3.3):
//
//   - transposition generators T_i (Definition 3.1),
//   - swap super generators S_{i,n} (Definition 3.1),
//   - insertion generators I_i (Definition 3.2),
//   - selection generators I_i^{-1} (Definition 3.3), and
//   - rotation super generators R^i (Definition 3.4).
//
// Each generator is a fixed permutation of positions. Applying generator g
// to node label U yields the neighbor V = U ∘ g (right multiplication),
// which is exactly "taking move g" in the ball-arrangement game. Generators
// are classified as nucleus generators (they permute only the leftmost n+1
// symbols: T, I, I^{-1}) or super generators (they permute whole
// super-symbols: S, R). The distinction drives the MCMP intercluster
// analysis in §4.3.
package gen

import (
	"fmt"

	"repro/internal/perm"
)

// Class tells whether a generator moves individual balls within the leftmost
// box (nucleus) or moves whole boxes (super). See §3.2 of the paper.
type Class int

const (
	// Nucleus generators permute the leftmost n+1 symbols.
	Nucleus Class = iota
	// Super generators permute super-symbols without changing their
	// contents; the corresponding links are intercluster links.
	Super
)

func (c Class) String() string {
	switch c {
	case Nucleus:
		return "nucleus"
	case Super:
		return "super"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Kind identifies the operator family a generator belongs to.
type Kind int

const (
	Transposition  Kind = iota // T_i: swap u1 and u_i
	Swap                       // S_{i,n}: swap super-symbols 1 and i
	Insertion                  // I_i: rotate prefix u_{1:i} left
	Selection                  // I_i^{-1}: rotate prefix u_{1:i} right
	Rotation                   // R^i: rotate suffix u_{2:k} right by i·n
	PositionSwap               // P_{i,j}: swap u_i and u_j (baseline graphs)
	PrefixReversal             // F_i: reverse u_{1:i} (pancake baseline)
)

func (k Kind) String() string {
	switch k {
	case Transposition:
		return "transposition"
	case Swap:
		return "swap"
	case Insertion:
		return "insertion"
	case Selection:
		return "selection"
	case Rotation:
		return "rotation"
	case PositionSwap:
		return "position-swap"
	case PrefixReversal:
		return "prefix-reversal"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Generator is one permissible move of a ball-arrangement game, equivalently
// one link dimension of a super Cayley graph.
type Generator struct {
	kind Kind
	// i is the defining index: the dimension for T_i/I_i/I_i^{-1}, the level
	// for S_{i,n}, and the exponent for R^i.
	i int
	// n is the super-symbol length; meaningful for Swap and Rotation.
	n int
}

// NewTransposition returns T_i, the operator that interchanges symbol u_i
// with symbol u_1 (Definition 3.1). Valid for i in 2..k.
func NewTransposition(i int) Generator {
	if i < 2 {
		panic(fmt.Sprintf("gen: NewTransposition(%d): i must be >= 2", i))
	}
	return Generator{kind: Transposition, i: i}
}

// NewSwap returns S_{i,n}, the level-i swap generator that interchanges
// super-symbol i (symbols u_{(i-1)n+2 .. in+1}) with super-symbol 1
// (symbols u_{2..n+1}) (Definition 3.1). Valid for i in 2..l.
func NewSwap(i, n int) Generator {
	if i < 2 || n < 1 {
		panic(fmt.Sprintf("gen: NewSwap(%d,%d): need i >= 2, n >= 1", i, n))
	}
	return Generator{kind: Swap, i: i, n: n}
}

// NewInsertion returns I_i, the operator that cyclically shifts the leftmost
// i symbols left by one position (Definition 3.2): I_i(U) =
// u_{2:i} u_1 u_{i+1:k}. Valid for i in 2..k.
func NewInsertion(i int) Generator {
	if i < 2 {
		panic(fmt.Sprintf("gen: NewInsertion(%d): i must be >= 2", i))
	}
	return Generator{kind: Insertion, i: i}
}

// NewSelection returns I_i^{-1}, the operator that cyclically shifts the
// leftmost i symbols right by one position (Definition 3.3). Valid for i in
// 2..k.
func NewSelection(i int) Generator {
	if i < 2 {
		panic(fmt.Sprintf("gen: NewSelection(%d): i must be >= 2", i))
	}
	return Generator{kind: Selection, i: i}
}

// NewRotation returns R^i for super-symbol length n: the operator that
// cyclically shifts the rightmost k-1 symbols right by i·n positions
// (Definition 3.4). i may be any integer; it acts modulo l. i = l-1 equals
// R^{-1}.
func NewRotation(i, n int) Generator {
	if n < 1 {
		panic(fmt.Sprintf("gen: NewRotation(%d,%d): n must be >= 1", i, n))
	}
	return Generator{kind: Rotation, i: i, n: n}
}

// NewPositionSwap returns P_{i,j}, the operator that exchanges the symbols
// at positions i and j. It is not one of the paper's BAG operators; it
// exists to build the bubble-sort and transposition-network baselines that
// the paper cites as embedding targets. T_i equals P_{1,i}.
func NewPositionSwap(i, j int) Generator {
	if i < 1 || j < 1 || i == j {
		panic(fmt.Sprintf("gen: NewPositionSwap(%d,%d): need distinct positions >= 1", i, j))
	}
	if i > j {
		i, j = j, i
	}
	return Generator{kind: PositionSwap, i: i, n: j}
}

// NewPrefixReversal returns F_i, the operator that reverses the leftmost i
// symbols; the pancake-graph baseline is generated by F_2..F_k.
func NewPrefixReversal(i int) Generator {
	if i < 2 {
		panic(fmt.Sprintf("gen: NewPrefixReversal(%d): i must be >= 2", i))
	}
	return Generator{kind: PrefixReversal, i: i}
}

// Kind returns the operator family.
func (g Generator) Kind() Kind { return g.kind }

// Index returns the defining index i (dimension, level, or exponent).
func (g Generator) Index() int { return g.i }

// BlockLen returns the super-symbol length n for Swap and Rotation
// generators, and 0 otherwise.
func (g Generator) BlockLen() int {
	if g.kind == Swap || g.kind == Rotation {
		return g.n
	}
	return 0
}

// SecondIndex returns j for PositionSwap generators and 0 otherwise.
func (g Generator) SecondIndex() int {
	if g.kind == PositionSwap {
		return g.n
	}
	return 0
}

// Class reports whether g is a nucleus or super generator.
func (g Generator) Class() Class {
	if g.kind == Swap || g.kind == Rotation {
		return Super
	}
	return Nucleus
}

// Name renders the paper's notation: T3, S2, I4, I4', R2 (the prime marks a
// selection, i.e. an inverse insertion).
func (g Generator) Name() string {
	switch g.kind {
	case Transposition:
		return fmt.Sprintf("T%d", g.i)
	case Swap:
		return fmt.Sprintf("S%d", g.i)
	case Insertion:
		return fmt.Sprintf("I%d", g.i)
	case Selection:
		return fmt.Sprintf("I%d'", g.i)
	case Rotation:
		return fmt.Sprintf("R%d", g.i)
	case PositionSwap:
		return fmt.Sprintf("P(%d,%d)", g.i, g.n)
	case PrefixReversal:
		return fmt.Sprintf("F%d", g.i)
	default:
		return "?"
	}
}

// String implements fmt.Stringer.
func (g Generator) String() string { return g.Name() }

// MinK returns the smallest number of symbols a permutation must have for g
// to act on it.
func (g Generator) MinK() int {
	switch g.kind {
	case Transposition, Insertion, Selection, PrefixReversal:
		return g.i
	case Swap:
		return g.i*g.n + 1
	case Rotation:
		return g.n + 2 // at least two super-symbols to rotate meaningfully
	case PositionSwap:
		return g.n // j >= i by construction
	default:
		return 1
	}
}

// Apply performs g's move on p in place. It panics if p is too short.
func (g Generator) Apply(p perm.Perm) {
	k := len(p)
	if k < g.MinK() {
		panic(fmt.Sprintf("gen: %s.Apply: k=%d < MinK=%d", g.Name(), k, g.MinK()))
	}
	switch g.kind {
	case Transposition:
		p.Swap(1, g.i)
	case Swap:
		p.SwapBlocks(2, (g.i-1)*g.n+2, g.n)
	case Insertion:
		p.RotateLeftPrefix(g.i)
	case Selection:
		p.RotateRightPrefix(g.i)
	case Rotation:
		l := (k - 1) / g.n
		if l*g.n != k-1 {
			panic(fmt.Sprintf("gen: %s.Apply: k-1=%d not a multiple of n=%d", g.Name(), k-1, g.n))
		}
		shift := ((g.i % l) + l) % l * g.n
		p.RotateSuffixRight(shift)
	case PositionSwap:
		p.Swap(g.i, g.n)
	case PrefixReversal:
		for a, b := 0, g.i-1; a < b; a, b = a+1, b-1 {
			p[a], p[b] = p[b], p[a]
		}
	}
}

// ApplyTo returns a fresh permutation equal to p after g's move; p is left
// untouched.
func (g Generator) ApplyTo(p perm.Perm) perm.Perm {
	q := p.Clone()
	g.Apply(q)
	return q
}

// Inverse returns the generator whose move undoes g for permutations of k
// symbols. Transpositions and swaps are involutions; insertion and selection
// invert each other; R^i inverts to R^{l-i}.
func (g Generator) Inverse(k int) Generator {
	switch g.kind {
	case Transposition, Swap, PositionSwap, PrefixReversal:
		return g
	case Insertion:
		return Generator{kind: Selection, i: g.i}
	case Selection:
		return Generator{kind: Insertion, i: g.i}
	case Rotation:
		l := (k - 1) / g.n
		inv := ((l-g.i%l)%l + l) % l
		return Generator{kind: Rotation, i: inv, n: g.n}
	default:
		panic("gen: Inverse: unknown kind")
	}
}

// AsPerm materializes g as an explicit permutation of k positions, so that
// applying g to U equals U.Compose(g.AsPerm(k)).
func (g Generator) AsPerm(k int) perm.Perm {
	p := perm.Identity(k)
	g.Apply(p)
	return p
}
