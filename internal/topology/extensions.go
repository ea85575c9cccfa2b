package topology

import (
	"fmt"
	"sort"

	"repro/internal/bag"
	"repro/internal/gen"
)

// This file implements the §3.3.4 extensions: rotation-subset networks
// ("we can use a subset of rotation generators R^1..R^{l-1} to generate
// networks whose cost and performance fall between those of rotation-star
// networks and complete-rotation-star networks") and recursive super Cayley
// graphs ("we can replace each of the nucleus (n+1)-stars of an MS(l,n)
// network with a small MS(l1,n1) network with l1·n1 = n").

// NewRotationSubsetStar returns a star-nucleus super Cayley graph whose
// super generators are the rotations R^e for e in exps. exps must be
// non-empty, with exponents in 1..l-1; the set must generate the full cyclic
// rotation group (gcd of exps and l equal to 1) for the network to be
// connected. Passing {1, l-1} yields RS(l,n); passing 1..l-1 yields
// complete-RS(l,n).
func NewRotationSubsetStar(l, n int, exps []int) (*Network, error) {
	if err := checkLN(RS, l, n); err != nil {
		return nil, err
	}
	if len(exps) == 0 {
		return nil, fmt.Errorf("topology: NewRotationSubsetStar: empty exponent set")
	}
	seen := map[int]bool{}
	g := l
	for _, e := range exps {
		if e < 1 || e > l-1 {
			return nil, fmt.Errorf("topology: NewRotationSubsetStar: exponent %d out of range 1..%d", e, l-1)
		}
		if seen[e] {
			return nil, fmt.Errorf("topology: NewRotationSubsetStar: duplicate exponent %d", e)
		}
		seen[e] = true
		g = gcd(g, e)
	}
	if g != 1 {
		return nil, fmt.Errorf("topology: NewRotationSubsetStar: exponents %v do not generate Z_%d (gcd %d)", exps, l, g)
	}
	k := n*l + 1
	// Routing plays the complete-rotation game and expands each of its
	// rotations into a word over the available powers (routeRotationSubset);
	// the links are that game's nucleus block and the available rotations.
	rules := bag.Rules{Layout: bag.MustLayout(l, n), Nucleus: bag.TranspositionNucleus, Super: bag.RotCompleteSuper}
	gens := rules.Generators()[:n]
	sorted := append([]int(nil), exps...)
	sort.Ints(sorted)
	for _, e := range sorted {
		gens = append(gens, gen.NewRotation(e, n))
	}
	name := fmt.Sprintf("RS(%d,%d;R%v)", l, n, sorted)
	nw, err := buildNetwork(RS, name, l, n, k, gens, rules, false)
	if err != nil {
		return nil, err
	}
	nw.rotSubset = sorted
	return nw, nil
}

// RotationExpansion expresses a rotation by t forward box positions as a
// minimal-length word over the available rotation exponents exps (modulo
// l). It is a BFS over Z_l and always succeeds when gcd(exps ∪ {l}) = 1.
func RotationExpansion(l, t int, exps []int) ([]int, error) {
	t = ((t % l) + l) % l
	if t == 0 {
		return nil, nil
	}
	prev := make([]int, l)
	via := make([]int, l)
	for i := range prev {
		prev[i] = -2 // unvisited
	}
	prev[0] = -1
	queue := []int{0}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for _, e := range exps {
			nxt := (cur + e) % l
			if prev[nxt] == -2 {
				prev[nxt] = cur
				via[nxt] = e
				queue = append(queue, nxt)
			}
		}
	}
	if prev[t] == -2 {
		return nil, fmt.Errorf("topology: RotationExpansion: %d unreachable over %v mod %d", t, exps, l)
	}
	var word []int
	for cur := t; cur != 0; cur = prev[cur] {
		word = append(word, via[cur])
	}
	// Reverse to apply in order (composition of rotations commutes, but keep
	// BFS order for determinism).
	for i, j := 0, len(word)-1; i < j; i, j = i+1, j-1 {
		word[i], word[j] = word[j], word[i]
	}
	return word, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// NewRecursiveMS returns the recursive macro-star network MS(l; l1, n1): an
// MS(l, n) with n = l1·n1 whose (n+1)-star nuclei are replaced by MS(l1,n1)
// networks (§3.3.4). Its generator set is
//
//	T_2..T_{n1+1}  ∪  S_{i,n1} (i = 2..l1)  ∪  S_{i,n} (i = 2..l)
//
// with degree n1 + l1 + l - 2 < n + l - 1.
func NewRecursiveMS(l, l1, n1 int) (*Network, error) {
	if l < 2 || l1 < 2 || n1 < 1 {
		return nil, fmt.Errorf("topology: NewRecursiveMS(%d,%d,%d): need l, l1 >= 2 and n1 >= 1", l, l1, n1)
	}
	n := l1 * n1
	k := n*l + 1
	// The links are the inner MS(l1,n1)'s and the outer MS(l,n)'s swaps.
	rules := bag.Rules{Layout: bag.MustLayout(l, n), Nucleus: bag.TranspositionNucleus, Super: bag.SwapSuper}
	inner := bag.Rules{Layout: bag.MustLayout(l1, n1), Nucleus: bag.TranspositionNucleus, Super: bag.SwapSuper}
	gens := append(inner.Generators(), rules.Generators()[n:]...)
	name := fmt.Sprintf("recursive-MS(%d;%d,%d)", l, l1, n1)
	nw, err := buildNetwork(MS, name, l, n, k, gens, rules, false)
	if err != nil {
		return nil, err
	}
	dict, err := transpositionDictionary(inner, n)
	if err != nil {
		return nil, err
	}
	nw.recursive = &recursiveSpec{dict: dict}
	return nw, nil
}

// recursiveSpec marks a recursive MS. dict expands each outer nucleus
// transposition T_i into a word over the inner MS(l1,n1) generators; the
// constructor fills it, so concurrent routes only read it.
type recursiveSpec struct {
	dict map[int][]gen.Generator
}

// transpositionDictionary expands the outer transpositions T_2..T_{n+1}
// into inner-MS words: T_i, viewed as a node of the inner MS(l1,n1) Cayley
// graph (a permutation of n+1 = l1·n1+1 symbols), is reached from the
// identity by solving the inner Balls-to-Boxes game on T_i⁻¹ = T_i.
func transpositionDictionary(inner bag.Rules, n int) (map[int][]gen.Generator, error) {
	dict := make(map[int][]gen.Generator, n)
	for i := 2; i <= n+1; i++ {
		// Route identity -> T_i in the inner graph: the word product must
		// equal T_i, i.e. solve the game from configuration T_i⁻¹ = T_i.
		cfg := gen.NewTransposition(i).AsPerm(inner.Layout.K()).Inverse()
		word, err := bag.Solve(inner, cfg)
		if err != nil {
			return nil, err
		}
		dict[i] = word
	}
	return dict, nil
}

// RecursiveDilation returns the worst-case inner word length replacing one
// outer transposition in a recursive MS — the slowdown of nucleus moves.
func (nw *Network) RecursiveDilation() (int, error) {
	if nw.recursive == nil {
		return 0, fmt.Errorf("topology: RecursiveDilation: %s is not recursive", nw.Name())
	}
	max := 0
	for _, w := range nw.recursive.dict {
		if len(w) > max {
			max = len(w)
		}
	}
	return max, nil
}
