package bag

import "testing"

func TestLayoutBasics(t *testing.T) {
	ly := MustLayout(3, 2)
	if ly.K() != 7 {
		t.Fatalf("K = %d", ly.K())
	}
	wantColors := map[int]int{1: 0, 2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3}
	for s, c := range wantColors {
		if got := ly.ColorOf(s); got != c {
			t.Errorf("ColorOf(%d) = %d, want %d", s, got, c)
		}
	}
	wantOffsets := map[int]int{2: 1, 3: 2, 4: 1, 5: 2, 6: 1, 7: 2}
	for s, o := range wantOffsets {
		if got := ly.HomeOffset(s); got != o {
			t.Errorf("HomeOffset(%d) = %d, want %d", s, got, o)
		}
	}
}

func TestLayoutBoxRanges(t *testing.T) {
	ly := MustLayout(3, 2)
	cases := []struct{ slot, start, end int }{
		{1, 2, 3}, {2, 4, 5}, {3, 6, 7},
	}
	for _, c := range cases {
		if ly.BoxStart(c.slot) != c.start || ly.BoxStart(c.slot)+ly.N-1 != c.end {
			t.Errorf("slot %d: [%d,%d], want [%d,%d]", c.slot, ly.BoxStart(c.slot), ly.BoxStart(c.slot)+ly.N-1, c.start, c.end)
		}
	}
	if ly.SlotOfPosition(1) != 0 {
		t.Error("SlotOfPosition(1) != 0")
	}
	for pos := 2; pos <= 7; pos++ {
		slot := ly.SlotOfPosition(pos)
		if pos < ly.BoxStart(slot) || pos > ly.BoxStart(slot)+ly.N-1 {
			t.Errorf("SlotOfPosition(%d) = %d inconsistent", pos, slot)
		}
	}
}

func TestLayoutValidation(t *testing.T) {
	if _, err := NewLayout(0, 2); err == nil {
		t.Error("l=0 accepted")
	}
	if _, err := NewLayout(2, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewLayout(1, 1); err != nil {
		t.Errorf("minimal layout rejected: %v", err)
	}
}

func TestLayoutHomeConsistency(t *testing.T) {
	// Ball s in the goal configuration sits at position s, which must equal
	// BoxStart(ColorOf(s)) + HomeOffset(s) - 1.
	for _, ly := range []Layout{MustLayout(1, 4), MustLayout(2, 3), MustLayout(4, 2), MustLayout(3, 3)} {
		for s := 2; s <= ly.K(); s++ {
			c := ly.ColorOf(s)
			if got := ly.BoxStart(c) + ly.HomeOffset(s) - 1; got != s {
				t.Errorf("%v: ball %d home position = %d", ly, s, got)
			}
		}
	}
}

func TestRulesValidation(t *testing.T) {
	if err := (Rules{Layout: MustLayout(1, 3), Nucleus: InsertionNucleus, Super: NoSuper}).Validate(); err != nil {
		t.Errorf("IS rules rejected: %v", err)
	}
	if err := (Rules{Layout: MustLayout(1, 3), Super: SwapSuper}).Validate(); err == nil {
		t.Error("l=1 with swaps accepted")
	}
	if err := (Rules{Layout: MustLayout(3, 2), Super: NoSuper}).Validate(); err == nil {
		t.Error("l=3 with no super moves accepted")
	}
}

func TestRulesGenerators(t *testing.T) {
	// MS(3,2): 2 transpositions + 2 swaps.
	ms := Rules{Layout: MustLayout(3, 2), Nucleus: TranspositionNucleus, Super: SwapSuper}
	if got := len(ms.Generators()); got != 4 {
		t.Errorf("MS(3,2) generator count = %d, want 4", got)
	}
	// complete-RR(3,2): 2 insertions + 2 rotations.
	crr := Rules{Layout: MustLayout(3, 2), Nucleus: InsertionNucleus, Super: RotCompleteSuper}
	if got := len(crr.Generators()); got != 4 {
		t.Errorf("complete-RR(3,2) generator count = %d, want 4", got)
	}
	// RR(3,2): 2 insertions + 1 rotation.
	rr := Rules{Layout: MustLayout(3, 2), Nucleus: InsertionNucleus, Super: RotSingleSuper}
	if got := len(rr.Generators()); got != 3 {
		t.Errorf("RR(3,2) generator count = %d, want 3", got)
	}
	// RS(2,2): rotation pair collapses to a single generator for l=2.
	rs := Rules{Layout: MustLayout(2, 2), Nucleus: TranspositionNucleus, Super: RotPairSuper}
	if got := len(rs.Generators()); got != 3 {
		t.Errorf("RS(2,2) generator count = %d, want 3 (pair collapses)", got)
	}
	// RS(3,2) keeps both directions.
	rs3 := Rules{Layout: MustLayout(3, 2), Nucleus: TranspositionNucleus, Super: RotPairSuper}
	if got := len(rs3.Generators()); got != 4 {
		t.Errorf("RS(3,2) generator count = %d, want 4", got)
	}
}

func TestStyleStrings(t *testing.T) {
	for _, s := range []SuperStyle{SwapSuper, RotSingleSuper, RotPairSuper, RotCompleteSuper, NoSuper} {
		if s.String() == "" {
			t.Errorf("SuperStyle %d empty name", s)
		}
	}
	for _, s := range []NucleusStyle{TranspositionNucleus, InsertionNucleus} {
		if s.String() == "" {
			t.Errorf("NucleusStyle %d empty name", s)
		}
	}
}
