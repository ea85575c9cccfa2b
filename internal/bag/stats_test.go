package bag

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/perm"
)

func TestFormatBoxes(t *testing.T) {
	ly := MustLayout(3, 2)
	u := perm.MustNew([]int{5, 3, 4, 2, 6, 7, 1})
	got := FormatBoxes(ly, u)
	if got != "5 [34][26][71]" {
		t.Fatalf("FormatBoxes = %q", got)
	}
	// Wide symbols (k >= 10) get spaces.
	wide := MustLayout(3, 4)
	id := perm.Identity(13)
	s := FormatBoxes(wide, id)
	if !strings.Contains(s, "[2 3 4 5]") {
		t.Fatalf("wide format = %q", s)
	}
	// Size mismatch falls back to the raw permutation.
	if FormatBoxes(ly, perm.Identity(5)) != perm.Identity(5).String() {
		t.Error("mismatched layout should fall back")
	}
}

func TestAnalyzeCounts(t *testing.T) {
	ly := MustLayout(3, 2)
	u := perm.MustNew([]int{5, 3, 4, 2, 6, 7, 1})
	rules := Rules{Layout: ly, Nucleus: TranspositionNucleus, Super: RotCompleteSuper}
	moves, err := Solve(rules, u)
	if err != nil {
		t.Fatal(err)
	}
	st := Analyze(rules, u, moves)
	if st.Moves != len(moves) {
		t.Fatalf("moves %d vs %d", st.Moves, len(moves))
	}
	if st.NucleusMoves+st.SuperMoves != st.Moves {
		t.Fatalf("split %d+%d != %d", st.NucleusMoves, st.SuperMoves, st.Moves)
	}
	if st.String() == "" {
		t.Error("empty String")
	}
}

// TestColor0EventBounds verifies the central §2.3 accounting: insertion
// play parks ball 1 at most l times, while transposition play can waste up
// to ~k/2 exchanges — exhaustively over all 5040 states at (3,2).
func TestColor0EventBounds(t *testing.T) {
	ly := MustLayout(3, 2)
	total := perm.Factorial(7)
	styles := []Rules{
		{Layout: ly, Nucleus: TranspositionNucleus, Super: SwapSuper},
		{Layout: ly, Nucleus: InsertionNucleus, Super: SwapSuper},
		{Layout: ly, Nucleus: InsertionNucleus, Super: RotCompleteSuper},
	}
	worst := map[NucleusStyle]int{}
	for _, rules := range styles {
		bound := Color0Bound(rules)
		for r := int64(0); r < total; r += 3 {
			u := perm.Unrank(7, r)
			moves, err := Solve(rules, u)
			if err != nil {
				t.Fatal(err)
			}
			st := Analyze(rules, u, moves)
			if st.Color0Events > bound {
				t.Fatalf("%s: %v needs %d color-0 moves, bound %d",
					rules, u, st.Color0Events, bound)
			}
			if st.Color0Events > worst[rules.Nucleus] {
				worst[rules.Nucleus] = st.Color0Events
			}
		}
	}
	t.Logf("worst color-0 events: transposition=%d (bound %d), insertion=%d (bound %d)",
		worst[TranspositionNucleus], 7/2, worst[InsertionNucleus], 3)
	// The separation must be visible: transposition play's worst case
	// exceeds insertion play's.
	if worst[TranspositionNucleus] <= worst[InsertionNucleus] {
		t.Errorf("no color-0 separation: transposition %d vs insertion %d",
			worst[TranspositionNucleus], worst[InsertionNucleus])
	}
}

func TestColor0Bound(t *testing.T) {
	ly := MustLayout(4, 3)
	if Color0Bound(Rules{Layout: ly, Nucleus: InsertionNucleus, Super: SwapSuper}) != 4 {
		t.Error("insertion bound should be l")
	}
	if Color0Bound(Rules{Layout: ly, Nucleus: TranspositionNucleus, Super: SwapSuper}) != 6 {
		t.Error("transposition bound should be k/2")
	}
}

// Stats summarizes one solved game, exposing the quantities §2.2–§2.3
// reason about.
type Stats struct {
	// Moves is the total solution length.
	Moves int
	// NucleusMoves counts transpositions/insertions (ball moves).
	NucleusMoves int
	// SuperMoves counts swaps/rotations (box moves).
	SuperMoves int
	// Color0Events counts ball moves made while the outside ball was ball 1
	// — the "wasted" moves that the insertion rules of §2.3 nearly
	// eliminate (at most l parkings versus up to ~k/2 exchanges).
	Color0Events int
}

// Analyze replays a legal solution of (rules, u) and gathers statistics. It
// assumes moves were produced by Solve/SolveWithOffset (it does not
// re-verify legality; call Verify for that).
func Analyze(rules Rules, u perm.Perm, moves []gen.Generator) Stats {
	var st Stats
	cfg := u.Clone()
	for _, m := range moves {
		st.Moves++
		switch m.Class() {
		case gen.Nucleus:
			st.NucleusMoves++
			if cfg[0] == 1 {
				st.Color0Events++
			}
		case gen.Super:
			st.SuperMoves++
		}
		m.Apply(cfg)
	}
	return st
}

// String renders the statistics compactly.
func (s Stats) String() string {
	return fmt.Sprintf("moves=%d nucleus=%d super=%d color0=%d",
		s.Moves, s.NucleusMoves, s.SuperMoves, s.Color0Events)
}

// Color0Bound returns the maximum number of color-0 ball moves the rules can
// incur on any instance: at most l parkings under insertion play (§2.3,
// "this can only happen at most l times"), versus up to ⌊k/2⌋ exchanges
// under transposition play.
func Color0Bound(rules Rules) int {
	switch rules.Nucleus {
	case InsertionNucleus:
		return rules.Layout.L
	default:
		return rules.Layout.K() / 2
	}
}
