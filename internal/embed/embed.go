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

	"repro/internal/gen"
	"repro/internal/perm"
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
