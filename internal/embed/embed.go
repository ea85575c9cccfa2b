// Package embed implements the embedding results quoted in §3.3.3 and
// §3.3.4 of the paper:
//
//   - insertion-selection networks "can embed star graphs of the same size
//     with congestion 1 and dilation 2" — realized here by the identity node
//     mapping and the generator factorization T_i = I'_{i-1} ∘ I_i;
//   - removing nucleus links partitions a rotation-style super Cayley graph
//     into k!/l disjoint l-node rings, and a complete-rotation one into
//     k!/l disjoint l-node complete graphs.
package embed

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/perm"
	"repro/internal/topology"
)

// StarToIS maps one star-graph generator to the IS generator path that
// simulates it: T_2 -> [I_2] and T_i -> [I_i, I'_{i-1}] for i >= 3. The node
// mapping is the identity, so dilation is the maximum path length (2) and
// every IS link is used by at most one star link (congestion 1).
func StarToIS(i int) ([]gen.Generator, error) {
	if i < 2 {
		return nil, fmt.Errorf("embed: StarToIS: dimension %d out of range (need >= 2)", i)
	}
	if i == 2 {
		return []gen.Generator{gen.NewInsertion(2)}, nil
	}
	return []gen.Generator{gen.NewInsertion(i), gen.NewSelection(i - 1)}, nil
}

// EmbeddingReport summarizes a measured embedding.
type EmbeddingReport struct {
	Dilation   int     // longest image path of a guest edge
	Congestion int     // max number of guest edges routed over one host link
	AvgPathLen float64 // average image path length
}

// MeasureStarIntoIS verifies the star(k) -> IS(k) embedding exhaustively:
// for every star node U and every generator T_i it replays the image path in
// the IS network, checks it lands on U·T_i, and accumulates host-link usage.
// Exhaustive for k <= 7; larger k are sampled with `samples` random nodes.
func MeasureStarIntoIS(k int, samples int) (*EmbeddingReport, error) {
	nodes, err := sampleNodes(k, samples)
	if err != nil {
		return nil, err
	}
	usage := make(map[string]int) // host directed link "rank:genName" -> #guest edges
	dilation := 0
	var totalLen, edges int
	for _, u := range nodes {
		for i := 2; i <= k; i++ {
			want := gen.NewTransposition(i).ApplyTo(u)
			path, err := StarToIS(i)
			if err != nil {
				return nil, err
			}
			cur := u.Clone()
			for _, g := range path {
				usage[fmt.Sprintf("%d:%s", cur.Rank(), g.Name())]++
				g.Apply(cur)
			}
			if !cur.Equal(want) {
				return nil, fmt.Errorf("embed: star edge (%v, T%d) maps to path ending at %v, want %v", u, i, cur, want)
			}
			if len(path) > dilation {
				dilation = len(path)
			}
			totalLen += len(path)
			edges++
		}
	}
	congestion := 0
	for _, c := range usage {
		if c > congestion {
			congestion = c
		}
	}
	return &EmbeddingReport{
		Dilation:   dilation,
		Congestion: congestion,
		AvgPathLen: float64(totalLen) / float64(edges),
	}, nil
}

// sampleNodes returns every permutation of k symbols when k <= 7, and
// `samples` random ones otherwise.
func sampleNodes(k, samples int) ([]perm.Perm, error) {
	if k < 2 {
		return nil, fmt.Errorf("embed: sampleNodes: k=%d", k)
	}
	var nodes []perm.Perm
	if total := perm.Factorial(k); k <= 7 {
		for r := int64(0); r < total; r++ {
			nodes = append(nodes, perm.Unrank(k, r))
		}
	} else {
		rng := perm.NewRNG(uint64(k))
		for i := 0; i < samples; i++ {
			nodes = append(nodes, perm.Random(k, rng))
		}
	}
	return nodes, nil
}

// ComponentShape describes what the super-generator-only subgraph of a
// network decomposes into.
type ComponentShape int

const (
	// RingComponents: each component is a directed or undirected l-cycle.
	RingComponents ComponentShape = iota
	// CompleteComponents: each component is a complete digraph K_l.
	CompleteComponents
)

// NucleusRemovalDecomposition removes all nucleus links from a super Cayley
// network and verifies the §3.3.4 structure: k!/l components, each an
// l-node ring (rotation pair / single) or complete graph (complete
// rotation). It returns the number of components found.
func NucleusRemovalDecomposition(nw *topology.Network, shape ComponentShape) (int64, error) {
	g := nw.Graph()
	k := g.K()
	if k > core.MaxExplicitK-1 {
		return 0, fmt.Errorf("embed: NucleusRemovalDecomposition: k=%d too large", k)
	}
	l := int64(nw.L())
	// supers holds the neighbor-table columns of the super generators.
	var supers []int
	for j, gg := range g.GeneratorSet().Generators() {
		if gg.Class() == gen.Super {
			supers = append(supers, j)
		}
	}
	if len(supers) == 0 {
		return 0, fmt.Errorf("embed: %s has no super generators", nw.Name())
	}
	tbl, err := g.EnsureNeighborTable(0)
	if err != nil {
		return 0, err
	}
	n := g.Order()
	comp := make([]int64, n)
	for i := range comp {
		comp[i] = -1
	}
	var components int64
	for start := int64(0); start < n; start++ {
		if comp[start] >= 0 {
			continue
		}
		// Collect the component by BFS over super links (both directions are
		// present in the closure because rotations have finite order).
		members := []int64{start}
		comp[start] = components
		for head := 0; head < len(members); head++ {
			for _, j := range supers {
				nr := tbl.At(members[head], j)
				if comp[nr] < 0 {
					comp[nr] = components
					members = append(members, nr)
				}
			}
		}
		if int64(len(members)) != l {
			return 0, fmt.Errorf("embed: %s: component of size %d, want l=%d", nw.Name(), len(members), l)
		}
		// Shape check: count super out-neighbors inside the component.
		for _, m := range members {
			distinct := make(map[int64]bool)
			for _, j := range supers {
				distinct[tbl.At(m, j)] = true
			}
			switch shape {
			case RingComponents:
				// A ring node reaches 1 (single rotation) or 2 (pair)
				// distinct neighbors, but never more.
				if len(distinct) > 2 || len(distinct) < 1 {
					return 0, fmt.Errorf("embed: %s: node has %d super neighbors, not a ring", nw.Name(), len(distinct))
				}
			case CompleteComponents:
				if int64(len(distinct)) != l-1 {
					return 0, fmt.Errorf("embed: %s: node reaches %d of %d others, not complete", nw.Name(), len(distinct), l-1)
				}
			}
		}
		components++
	}
	if components*l != n {
		return 0, fmt.Errorf("embed: %s: %d components of size %d != %d nodes", nw.Name(), components, l, n)
	}
	return components, nil
}

// EmulateStarOnIS runs one step of star-graph emulation: given a star-graph
// routing (a T-generator sequence), it returns the IS-generator sequence
// that realizes it with slowdown at most 2 (§3.3.3: "emulate star graphs of
// the same size with a slowdown factor of at most 2").
func EmulateStarOnIS(moves []gen.Generator) ([]gen.Generator, error) {
	var out []gen.Generator
	for _, m := range moves {
		if m.Kind() != gen.Transposition {
			return nil, fmt.Errorf("embed: EmulateStarOnIS: move %s is not a star generator", m.Name())
		}
		path, err := StarToIS(m.Index())
		if err != nil {
			return nil, err
		}
		out = append(out, path...)
	}
	return out, nil
}
