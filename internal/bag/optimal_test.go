package bag

import (
	"testing"

	"repro/internal/perm"
)

func TestSolveOptimalBasics(t *testing.T) {
	rules := Rules{Layout: MustLayout(2, 2), Nucleus: TranspositionNucleus, Super: SwapSuper}
	// Identity needs no moves.
	moves, err := SolveOptimal(rules, perm.Identity(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 0 {
		t.Fatalf("identity solved with %d moves", len(moves))
	}
	// A single-generator state is solved in one move.
	u := perm.Identity(5)
	u.Swap(1, 2) // T2 applied
	moves, err = SolveOptimal(rules, u, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 1 {
		t.Fatalf("one-away state solved with %d moves: %v", len(moves), MoveNames(moves))
	}
	if err := Verify(rules, u, moves); err != nil {
		t.Fatal(err)
	}
}

// TestSolveOptimalNeverLongerThanHeuristic: the optimal solver's length is a
// lower bound on the heuristic solver's, and both are legal solutions, over
// all 120 states of MS(2,2)-style rules.
func TestSolveOptimalNeverLongerThanHeuristic(t *testing.T) {
	for _, rules := range []Rules{
		{Layout: MustLayout(2, 2), Nucleus: TranspositionNucleus, Super: SwapSuper},
		{Layout: MustLayout(2, 2), Nucleus: InsertionNucleus, Super: RotCompleteSuper},
	} {
		total := perm.Factorial(5)
		for r := int64(0); r < total; r += 3 {
			u := perm.Unrank(5, r)
			opt, err := SolveOptimal(rules, u, 0)
			if err != nil {
				t.Fatalf("%s %v: %v", rules, u, err)
			}
			if err := Verify(rules, u, opt); err != nil {
				t.Fatalf("%s: optimal solution invalid: %v", rules, err)
			}
			heur, err := Solve(rules, u)
			if err != nil {
				t.Fatal(err)
			}
			if len(opt) > len(heur) {
				t.Fatalf("%s %v: optimal %d > heuristic %d", rules, u, len(opt), len(heur))
			}
		}
	}
}

func TestDistance(t *testing.T) {
	rules := Rules{Layout: MustLayout(2, 2), Nucleus: TranspositionNucleus, Super: SwapSuper}
	u := perm.MustNew([]int{3, 2, 1, 4, 5})
	moves, err := SolveOptimal(rules, u, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := len(moves); d < 1 || d > 12 {
		t.Fatalf("distance %d out of range", len(moves))
	}
}

func TestSolveOptimalDepthLimit(t *testing.T) {
	rules := Rules{Layout: MustLayout(2, 2), Nucleus: TranspositionNucleus, Super: SwapSuper}
	// Find a state at distance > 2 and confirm maxDepth = 2 fails.
	u := perm.MustNew([]int{5, 4, 3, 2, 1})
	if _, err := SolveOptimal(rules, u, 2); err == nil {
		t.Error("depth-2 search should fail for a far state")
	}
	if _, err := SolveOptimal(rules, perm.Identity(6), 0); err == nil {
		t.Error("size mismatch accepted")
	}
}

// TestSolveOptimalLargeKShortDistance: IDA* works at sizes far beyond BFS
// when the distance is small (k = 13).
func TestSolveOptimalLargeKShortDistance(t *testing.T) {
	rules := Rules{Layout: MustLayout(4, 3), Nucleus: TranspositionNucleus, Super: SwapSuper}
	u := perm.Identity(13)
	// Scramble with 4 random generator applications.
	gens := rules.Generators()
	rng := perm.NewRNG(9)
	for i := 0; i < 4; i++ {
		gens[rng.Intn(len(gens))].Apply(u)
	}
	moves, err := SolveOptimal(rules, u, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) > 4 {
		t.Fatalf("scrambled by 4 moves but optimal claims %d", len(moves))
	}
	if err := Verify(rules, u, moves); err != nil {
		t.Fatal(err)
	}
}
