package gen

import (
	"fmt"
	"strings"

	"repro/internal/perm"
)

// Set is an ordered collection of generators: the full move repertoire of a
// ball-arrangement game and, equivalently, the link dimensions of the
// derived Cayley graph. Order matters only for reproducible link numbering.
type Set struct {
	gens []Generator
	k    int // number of symbols the set acts on
}

// NewSet builds a generator set acting on permutations of k symbols. It
// validates that every generator fits k.
func NewSet(k int, gens ...Generator) (*Set, error) {
	if k < 2 {
		return nil, fmt.Errorf("gen: NewSet: k=%d must be >= 2", k)
	}
	if len(gens) == 0 {
		return nil, fmt.Errorf("gen: NewSet: no generators")
	}
	for _, g := range gens {
		if k < g.MinK() {
			return nil, fmt.Errorf("gen: NewSet: generator %s requires k >= %d, got %d", g.Name(), g.MinK(), k)
		}
		if g.Kind() == Rotation && (k-1)%g.BlockLen() != 0 {
			return nil, fmt.Errorf("gen: NewSet: rotation %s needs k-1 divisible by n=%d, got k=%d", g.Name(), g.BlockLen(), k)
		}
	}
	s := &Set{gens: append([]Generator(nil), gens...), k: k}
	return s, nil
}

// MustSet is like NewSet but panics on error; for tests and fixed topologies.
func MustSet(k int, gens ...Generator) *Set {
	s, err := NewSet(k, gens...)
	if err != nil {
		panic(err)
	}
	return s
}

// K returns the number of symbols the set acts on.
func (s *Set) K() int { return s.k }

// Len returns the number of generators (= out-degree of the Cayley graph).
func (s *Set) Len() int { return len(s.gens) }

// At returns the i-th generator (0-based link index).
func (s *Set) At(i int) Generator { return s.gens[i] }

// Generators returns a copy of the generator list.
func (s *Set) Generators() []Generator {
	return append([]Generator(nil), s.gens...)
}

// Names returns the paper-style names of all generators, in order.
func (s *Set) Names() []string {
	names := make([]string, len(s.gens))
	for i, g := range s.gens {
		names[i] = g.Name()
	}
	return names
}

// String renders the set as "{T2, T3, S2}".
func (s *Set) String() string {
	return "{" + strings.Join(s.Names(), ", ") + "}"
}

// NucleusCount returns how many generators are nucleus generators.
func (s *Set) NucleusCount() int {
	c := 0
	for _, g := range s.gens {
		if g.Class() == Nucleus {
			c++
		}
	}
	return c
}

// SuperCount returns how many generators are super generators. This is the
// intercluster degree of the derived network (§4.3).
func (s *Set) SuperCount() int { return s.Len() - s.NucleusCount() }

// IsInverseClosed reports whether every generator's inverse is also in the
// set. Inverse-closed sets yield undirected Cayley graphs (§3.2): each
// directed link pairs with its reversal.
func (s *Set) IsInverseClosed() bool {
	for _, g := range s.gens {
		invP := g.Inverse(s.k).AsPerm(s.k)
		found := false
		for _, h := range s.gens {
			if h.AsPerm(s.k).Equal(invP) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Perms materializes every generator as an explicit permutation, in order.
// The result is what the Cayley-graph engine composes with node labels.
func (s *Set) Perms() []perm.Perm {
	ps := make([]perm.Perm, len(s.gens))
	for i, g := range s.gens {
		ps[i] = g.AsPerm(s.k)
	}
	return ps
}

// IndexOf returns the position of the first generator whose action equals
// g's action on k symbols, or -1 if absent.
func (s *Set) IndexOf(g Generator) int {
	gp := g.AsPerm(s.k)
	for i, h := range s.gens {
		if h.AsPerm(s.k).Equal(gp) {
			return i
		}
	}
	return -1
}

// Generates reports whether the set's action on positions is transitive:
// whether every position can be carried to every other. That is necessary
// but not sufficient for the set to generate S_k (a single k-cycle is
// transitive and generates only Z_k). core.Graph.Connected decides
// generation exactly, by one search, for k <= core.MaxExplicitK.
func (s *Set) Generates() bool {
	// Union positions that any generator maps between; the action is
	// transitive iff all positions end in one component.
	parent := make([]int, s.k)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, g := range s.Perms() {
		for pos, img := range g {
			if img != pos+1 {
				union(pos, img-1)
			}
		}
	}
	root := find(0)
	for i := 1; i < s.k; i++ {
		if find(i) != root {
			return false
		}
	}
	return true
}
