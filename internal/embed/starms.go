package embed

import (
	"fmt"

	"repro/internal/bag"
	"repro/internal/gen"
)

// StarToMS maps a star-graph generator T_i onto a macro-star MS(l,n) path
// (§5's star-graph emulation): for i <= n+1 the transposition is a nucleus
// generator of MS; for larger i it is the conjugation
//
//	T_i = S_b ∘ T_o ∘ S_b
//
// where b is the super-symbol containing position i and o = 1 + offset of i
// within it: swap block b to the front, exchange there, swap back. Dilation
// is therefore 3; swap links are shared by the n dimensions of their block,
// so congestion is O(n).
func StarToMS(ly bag.Layout, i int) ([]gen.Generator, error) {
	k := ly.K()
	if i < 2 || i > k {
		return nil, fmt.Errorf("embed: StarToMS: dimension %d out of range 2..%d", i, k)
	}
	slot := ly.SlotOfPosition(i)
	if slot == 1 {
		return []gen.Generator{gen.NewTransposition(i)}, nil
	}
	offset := i - ly.BoxStart(slot) + 1
	s := gen.NewSwap(slot, ly.N)
	return []gen.Generator{s, gen.NewTransposition(1 + offset), s}, nil
}

// EmulateStarOnMS converts a star-graph route to a legal MS(l,n) route with
// slowdown at most 3.
func EmulateStarOnMS(ly bag.Layout, moves []gen.Generator) ([]gen.Generator, error) {
	var out []gen.Generator
	for _, m := range moves {
		if m.Kind() != gen.Transposition {
			return nil, fmt.Errorf("embed: EmulateStarOnMS: move %s is not a star generator", m.Name())
		}
		path, err := StarToMS(ly, m.Index())
		if err != nil {
			return nil, err
		}
		out = append(out, path...)
	}
	return out, nil
}
