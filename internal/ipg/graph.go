package ipg

import (
	"fmt"

	"repro/internal/bag"
	"repro/internal/core"
	"repro/internal/gen"
)

// MaxExplicitOrder bounds exhaustive BFS over index-permutation graphs.
const MaxExplicitOrder = 1 << 23

// Graph is an index-permutation graph: the state-transition graph of a BAG
// with repeated ball numbers, defined by a signature and a generator set.
type Graph struct {
	name string
	sig  Signature
	gens []gen.Generator
}

// NewGraph validates and builds an index-permutation graph.
func NewGraph(name string, sig Signature, gens []gen.Generator) (*Graph, error) {
	if len(gens) == 0 {
		return nil, fmt.Errorf("ipg: NewGraph: no generators")
	}
	k := sig.K()
	for _, g := range gens {
		if k < g.MinK() {
			return nil, fmt.Errorf("ipg: NewGraph: generator %s needs k >= %d, got %d", g.Name(), g.MinK(), k)
		}
	}
	// Deduplicate generators whose actions coincide on positions.
	seen := map[string]bool{}
	var uniq []gen.Generator
	for _, g := range gens {
		key := g.AsPerm(k).String()
		if !seen[key] {
			seen[key] = true
			uniq = append(uniq, g)
		}
	}
	return &Graph{name: name, sig: sig, gens: uniq}, nil
}

// Name returns the display name.
func (g *Graph) Name() string { return g.name }

// Order returns the node count.
func (g *Graph) Order() (int64, error) { return g.sig.Order() }

// indexGraph returns g as a core.IndexGraph over label ranks: node r's
// out-neighbors are the ranks of Unrank(r) under each generator, in
// generator order, so core's engines measure the quotient directly.
func (g *Graph) indexGraph() (*core.IndexGraph, error) {
	n, err := g.sig.Order()
	if err != nil {
		return nil, err
	}
	if n > MaxExplicitOrder {
		return nil, fmt.Errorf("ipg: %s: order %d exceeds limit %d", g.name, n, MaxExplicitOrder)
	}
	// Each generator's position map, once per graph: generator j takes
	// label cur to next[i] = cur[from[j][i]], as Apply does.
	k := g.sig.K()
	from := make([][]int, len(g.gens))
	for j, gg := range g.gens {
		from[j] = make([]int, k)
		for i, src := range gg.AsPerm(k) {
			from[j][i] = src - 1
		}
	}
	// Out's scratch: core calls it from one goroutine at a time.
	cur, next := make(Label, k), make(Label, k)
	counts := make([]int, g.sig.Symbols())
	// Ranks below the order unrank, and generators permute valid labels
	// into valid labels, so rank and unrank see only valid input.
	return &core.IndexGraph{N: n, Out: func(r int64, visit func(int64)) {
		g.sig.unrank(r, cur, counts, n)
		for _, f := range from {
			for i, src := range f {
				next[i] = cur[src]
			}
			visit(g.sig.rank(next, counts, n))
		}
	}}, nil
}

// BFS measures the graph exhaustively from src on core's engine; the
// result's ranks are label ranks. Index-permutation graphs are
// vertex-transitive whenever the generator group acts transitively on
// labels with the same signature, which holds for all instances here, so
// the profile from the sorted label is the graph profile.
func (g *Graph) BFS(src Label) (*core.BFSResult, error) {
	srcRank, err := g.sig.Rank(src)
	if err != nil {
		return nil, err
	}
	ig, err := g.indexGraph()
	if err != nil {
		return nil, err
	}
	return ig.BFS(srcRank)
}

// Diameter returns the exact diameter by BFS from the sorted label.
func (g *Graph) Diameter() (int, error) {
	res, err := g.BFS(g.sig.Sorted())
	if err != nil {
		return 0, err
	}
	n, err := g.sig.Order()
	if err != nil {
		return 0, err
	}
	if res.Reachable != n {
		return 0, fmt.Errorf("ipg: Diameter: graph not strongly connected (%d/%d)", res.Reachable, n)
	}
	return res.Eccentricity, nil
}

// SIPSignature is the super-index-permutation multiset of the Balls-to-
// Boxes game with indistinguishable same-color balls: one color-0 ball and
// n balls of each color 1..l. To keep symbols contiguous, color 0 is
// renamed to symbol l+1 (the unique largest symbol), so the sorted goal is
// "1..1 2..2 ... l..l (l+1)". For game semantics (outside ball first) use
// SIPGoal.
func SIPSignature(l, n int) (Signature, error) {
	if l < 1 || n < 1 {
		return Signature{}, fmt.Errorf("ipg: SIPSignature(%d,%d): need l, n >= 1", l, n)
	}
	counts := make([]int, l+1)
	for i := 0; i < l; i++ {
		counts[i] = n
	}
	counts[l] = 1
	return NewSignature(counts)
}

// NewSIP builds the super-index-permutation graph SIP(l,n) with the same
// nucleus/super move styles as the super Cayley families. Positions follow
// the BAG layout: position 1 is the outside slot, box j occupies positions
// (j-1)n+2..jn+1. Node labels use symbol l+1 for the color-0 ball.
func NewSIP(l, n int, rules bag.Rules) (*Graph, error) {
	if rules.Layout.L != l || rules.Layout.N != n {
		return nil, fmt.Errorf("ipg: NewSIP: rules layout %v does not match (%d,%d)", rules.Layout, l, n)
	}
	if err := rules.Validate(); err != nil {
		return nil, err
	}
	sig, err := SIPSignature(l, n)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("SIP(%d,%d;%s/%s)", l, n, rules.Nucleus, rules.Super)
	return NewGraph(name, sig, rules.Generators())
}

// SIPGoal returns the solved configuration of SIP(l,n): the color-0 ball
// (symbol l+1) outside, box j full of symbol j.
func SIPGoal(l, n int) Label {
	out := make(Label, 0, n*l+1)
	out = append(out, l+1)
	for j := 1; j <= l; j++ {
		for i := 0; i < n; i++ {
			out = append(out, j)
		}
	}
	return out
}
