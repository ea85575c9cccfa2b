package topology

import (
	"fmt"

	"repro/internal/gen"
)

// numKinds is the number of gen.Kind values, PositionSwap and
// PrefixReversal included.
const numKinds = int(gen.PrefixReversal) + 1

// linkTable maps a generator to its link number. It is keyed on the three
// fields gen.Generator's == compares: the kind, the index and the third
// field (a Swap's or Rotation's block length, a PositionSwap's second
// position, 0 for every other kind). The index and the third field lie in
// 0..k for every link of a network on k symbols, so the table is a dense
// numKinds × (k+1) × (k+1) array, and a lookup is three bounds checks and
// one load where a map would hash the whole 24-byte generator.
type linkTable struct {
	span int      // k+1: the extent of the index and of the third field
	link []uint16 // link number + 1 per (kind, index, third); 0 = not a link
}

// newLinkTable numbers links in set order. Link numbers go past a byte:
// transposition(64) has 2,016 links.
func newLinkTable(k int, links []gen.Generator) (linkTable, error) {
	t := linkTable{span: k + 1, link: make([]uint16, numKinds*(k+1)*(k+1))}
	for j, g := range links {
		at, ok := t.slot(g)
		if !ok {
			return linkTable{}, fmt.Errorf("topology: link %s does not fit a %d-symbol link table", g, k)
		}
		t.link[at] = uint16(j + 1)
	}
	return t, nil
}

// slot returns g's position in the table, or false when one of its fields
// lies outside it (a rotation exponent above k, say), which no link does.
func (t *linkTable) slot(g gen.Generator) (int, bool) {
	// The third field is what BlockLen or SecondIndex reports; at most one
	// of them is nonzero.
	kind, i, third := int(g.Kind()), g.Index(), g.BlockLen()+g.SecondIndex()
	span := uint(t.span)
	if uint(kind) >= uint(numKinds) || uint(i) >= span || uint(third) >= span {
		return 0, false
	}
	return (kind*t.span+i)*t.span + third, true
}

// find returns g's link number, or false when g is not one of the links by
// value. An action-equal generator with another notation is not found
// here; VerifyRouteInto admits it through the network's allowedPerm set.
func (t *linkTable) find(g gen.Generator) (int, bool) {
	at, ok := t.slot(g)
	if !ok {
		return 0, false
	}
	v := t.link[at]
	return int(v) - 1, v != 0
}
