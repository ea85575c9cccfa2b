package gen

import (
	"testing"

	"repro/internal/perm"
)

func TestPositionSwapAction(t *testing.T) {
	p := perm.MustNew([]int{1, 2, 3, 4, 5})
	NewPositionSwap(2, 4).Apply(p)
	if !p.Equal(perm.MustNew([]int{1, 4, 3, 2, 5})) {
		t.Fatalf("P(2,4) = %v", p)
	}
	NewPositionSwap(4, 2).Apply(p) // argument order normalizes
	if !p.IsIdentity() {
		t.Fatalf("P(4,2) did not undo: %v", p)
	}
	// T_i is P(1,i).
	a := NewTransposition(3).AsPerm(5)
	b := NewPositionSwap(1, 3).AsPerm(5)
	if !a.Equal(b) {
		t.Error("T3 != P(1,3)")
	}
	if NewPositionSwap(2, 4).Name() != "P(2,4)" {
		t.Error("name")
	}
	if !selfInverse(NewPositionSwap(2, 4), 5) {
		t.Error("position swap must be self-inverse")
	}
	if NewPositionSwap(2, 4).Class() != Nucleus {
		t.Error("class")
	}
}

func TestPositionSwapPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewPositionSwap(0, 2) },
		func() { NewPositionSwap(2, 2) },
		func() { NewPositionSwap(-1, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid NewPositionSwap did not panic")
				}
			}()
			f()
		}()
	}
}

func TestPrefixReversalAction(t *testing.T) {
	p := perm.MustNew([]int{1, 2, 3, 4, 5})
	NewPrefixReversal(4).Apply(p)
	if !p.Equal(perm.MustNew([]int{4, 3, 2, 1, 5})) {
		t.Fatalf("F4 = %v", p)
	}
	NewPrefixReversal(4).Apply(p)
	if !p.IsIdentity() {
		t.Fatalf("F4 not involutive: %v", p)
	}
	if !selfInverse(NewPrefixReversal(3), 5) {
		t.Error("prefix reversal must be self-inverse")
	}
	if NewPrefixReversal(3).Name() != "F3" {
		t.Error("name")
	}
	// F2 = T2.
	if !NewPrefixReversal(2).AsPerm(4).Equal(NewTransposition(2).AsPerm(4)) {
		t.Error("F2 != T2")
	}
	defer func() {
		if recover() == nil {
			t.Error("F1 did not panic")
		}
	}()
	NewPrefixReversal(1)
}

func TestSecondIndex(t *testing.T) {
	if NewPositionSwap(2, 4).SecondIndex() != 4 {
		t.Error("SecondIndex")
	}
	if NewTransposition(3).SecondIndex() != 0 {
		t.Error("SecondIndex for non-swap should be 0")
	}
}

func TestBaselineKindStrings(t *testing.T) {
	if PositionSwap.String() != "position-swap" || PrefixReversal.String() != "prefix-reversal" {
		t.Error("kind strings")
	}
}
