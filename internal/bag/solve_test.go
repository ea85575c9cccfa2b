package bag

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/perm"
)

// allRules enumerates every (nucleus, super) style combination valid for a
// multi-box layout.
func allRules(ly Layout) []Rules {
	var rs []Rules
	for _, nu := range []NucleusStyle{TranspositionNucleus, InsertionNucleus} {
		if ly.L == 1 {
			rs = append(rs, Rules{Layout: ly, Nucleus: nu, Super: NoSuper})
			continue
		}
		for _, su := range []SuperStyle{SwapSuper, RotSingleSuper, RotPairSuper, RotCompleteSuper} {
			rs = append(rs, Rules{Layout: ly, Nucleus: nu, Super: su})
		}
	}
	return rs
}

// TestSolveExhaustiveSmall solves every one of the k! configurations for
// several small layouts under every rule combination, verifying move
// legality, the final configuration, and the worst-case bound.
func TestSolveExhaustiveSmall(t *testing.T) {
	layouts := []Layout{
		MustLayout(2, 2), // k = 5, 120 states
		MustLayout(4, 1), // k = 5, boxes of one ball
		MustLayout(1, 4), // k = 5, IS/rotator style single box
		MustLayout(2, 3), // k = 7, 5040 states
		MustLayout(3, 2), // k = 7
	}
	if !testing.Short() {
		layouts = append(layouts,
			MustLayout(7, 1), // k = 8, 40320 states, single-ball boxes
			MustLayout(1, 7), // k = 8, one large box (IS/rotator regime)
		)
	}
	for _, ly := range layouts {
		k := ly.K()
		total := perm.Factorial(k)
		for _, rules := range allRules(ly) {
			bound := WorstCaseBound(rules)
			maxLen := 0
			for r := int64(0); r < total; r++ {
				u := perm.Unrank(k, r)
				moves, err := Solve(rules, u)
				if err != nil {
					t.Fatalf("%s: Solve(%v): %v", rules, u, err)
				}
				if err := Verify(rules, u, moves); err != nil {
					t.Fatalf("%s: Verify(%v): %v", rules, u, err)
				}
				if len(moves) > bound {
					t.Fatalf("%s: |moves| = %d exceeds bound %d for %v", rules, len(moves), bound, u)
				}
				if len(moves) > maxLen {
					maxLen = len(moves)
				}
			}
			t.Logf("%s: worst solved length %d (bound %d)", rules, maxLen, bound)
		}
	}
}

// TestSolveBoundedOffsetsMatchFullScan: Scratch.Solve abandons an
// offset's game once it reaches the best length so far. For every
// rotation-style rule set with k <= 8 (k <= 7 under -short and -race) it
// must return, on every state, the route a full scan of every offset picks.
func TestSolveBoundedOffsetsMatchFullScan(t *testing.T) {
	maxK := 8
	if testing.Short() || raceEnabled {
		maxK = 7
	}
	var sc Scratch
	states := 0
	for l := 2; l+1 <= maxK; l++ {
		for n := 1; n*l+1 <= maxK; n++ {
			ly := MustLayout(l, n)
			k := ly.K()
			for _, rules := range allRules(ly) {
				if rules.Super == SwapSuper {
					continue
				}
				for r := int64(0); r < perm.Factorial(k); r++ {
					u := perm.Unrank(k, r)
					got, err := sc.Solve(rules, u)
					if err != nil {
						t.Fatalf("%s: Solve(%v): %v", rules, u, err)
					}
					want, err := shortestOffsetScan(rules, u)
					if err != nil {
						t.Fatalf("%s: scan(%v): %v", rules, u, err)
					}
					if !sameMoves(got, want) {
						t.Fatalf("%s: Solve(%v) = %v, offset scan %v", rules, u, MoveNames(got), MoveNames(want))
					}
					states++
				}
			}
		}
	}
	t.Logf("%d (rules, state) pairs up to k = %d", states, maxK)
}

func TestSolveIdentityIsEmpty(t *testing.T) {
	for _, ly := range []Layout{MustLayout(2, 2), MustLayout(3, 2), MustLayout(1, 5)} {
		for _, rules := range allRules(ly) {
			moves, err := Solve(rules, perm.Identity(ly.K()))
			if err != nil {
				t.Fatalf("%s: %v", rules, err)
			}
			if len(moves) != 0 {
				t.Errorf("%s: identity solved with %d moves %v", rules, len(moves), MoveNames(moves))
			}
		}
	}
}

func TestSolveRejectsBadInput(t *testing.T) {
	rules := Rules{Layout: MustLayout(2, 2), Nucleus: TranspositionNucleus, Super: SwapSuper}
	if _, err := Solve(rules, perm.Identity(6)); err == nil {
		t.Error("wrong-size configuration accepted")
	}
	if _, err := SolveWithOffset(rules, perm.Identity(5), 1); err == nil {
		t.Error("nonzero offset accepted for swap style")
	}
	rot := Rules{Layout: MustLayout(3, 2), Nucleus: TranspositionNucleus, Super: RotCompleteSuper}
	if _, err := SolveWithOffset(rot, perm.Identity(7), 3); err == nil {
		t.Error("offset >= l accepted")
	}
	if _, err := Solve(Rules{Layout: MustLayout(3, 2), Nucleus: TranspositionNucleus, Super: NoSuper}, perm.Identity(7)); err == nil {
		t.Error("invalid rules accepted")
	}
}

// TestSolveQuotientRejectsBadLabels: a label must hold n balls of each
// color 1..l and one of color l+1; anything else is refused before play.
func TestSolveQuotientRejectsBadLabels(t *testing.T) {
	rules := Rules{Layout: MustLayout(3, 2), Nucleus: InsertionNucleus, Super: RotPairSuper}
	for _, u := range [][]int{
		nil,
		{4, 1, 1, 2, 2, 3},       // too short
		{4, 1, 1, 2, 2, 3, 3, 3}, // too long
		{4, 1, 1, 2, 2, 3, 5},    // color out of range
		{4, 1, 1, 1, 2, 3, 3},    // three balls of color 1
		{4, 4, 1, 2, 2, 3, 3},    // two color-0 balls
		{0, 1, 1, 2, 2, 3, 3},    // color 0 written as 0
	} {
		if moves, err := SolveQuotient(rules, u); err == nil {
			t.Errorf("label %v accepted, solved by %v", u, MoveNames(moves))
		}
	}
	if _, err := SolveQuotient(Rules{Layout: MustLayout(3, 2), Super: NoSuper}, []int{4, 1, 1, 2, 2, 3, 3}); err == nil {
		t.Error("invalid rules accepted")
	}
	for _, rules := range allRules(MustLayout(3, 2)) {
		moves, err := SolveQuotient(rules, []int{4, 1, 1, 2, 2, 3, 3})
		if err != nil || len(moves) != 0 {
			t.Errorf("%s: goal label solved by %v, %v", rules, MoveNames(moves), err)
		}
	}
}

// TestFigure2Configuration solves the paper's Figure 2 instance: source
// 5342671, destination 1234567, l = 3 boxes of n = 2 balls, balls moved by
// insertions and boxes by rotations.
func TestFigure2Configuration(t *testing.T) {
	u := perm.MustNew([]int{5, 3, 4, 2, 6, 7, 1})
	rules := Rules{Layout: MustLayout(3, 2), Nucleus: InsertionNucleus, Super: RotCompleteSuper}
	// Figure 2 uses the same color assignment as Figure 1 (colors 2,3,1 =
	// offset 1).
	fig2, err := SolveWithOffset(rules, u, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(rules, u, fig2); err != nil {
		t.Fatal(err)
	}
	t.Logf("Figure 2 (offset 1): %d moves: %v", len(fig2), MoveNames(fig2))
	// Figure 3 solves the same instance with a different color assignment
	// and "considerably reduces the number of steps": the best offset must
	// be no worse than offset 1.
	best, err := Solve(rules, u)
	if err != nil {
		t.Fatal(err)
	}
	if len(best) > len(fig2) {
		t.Errorf("best-offset solution (%d moves) longer than fixed-offset (%d)", len(best), len(fig2))
	}
	t.Logf("Figure 3 (best offset): %d moves: %v", len(best), MoveNames(best))
}

// TestColorAssignmentMatters reproduces the qualitative claim of Fig. 3:
// for some instance the best color offset is strictly better than the worst.
func TestColorAssignmentMatters(t *testing.T) {
	rules := Rules{Layout: MustLayout(3, 2), Nucleus: InsertionNucleus, Super: RotCompleteSuper}
	found := false
	total := perm.Factorial(7)
	for r := int64(0); r < total && !found; r += 97 {
		u := perm.Unrank(7, r)
		min, max := -1, -1
		for b := 0; b < 3; b++ {
			moves, err := SolveWithOffset(rules, u, b)
			if err != nil {
				t.Fatal(err)
			}
			if min == -1 || len(moves) < min {
				min = len(moves)
			}
			if len(moves) > max {
				max = len(moves)
			}
		}
		if max >= min+3 {
			found = true
		}
	}
	if !found {
		t.Error("no instance found where color assignment changes solution length by >= 3")
	}
}

func TestSolveStarExhaustive(t *testing.T) {
	for k := 2; k <= 7; k++ {
		bound := 3 * (k - 1) / 2
		maxLen := 0
		total := perm.Factorial(k)
		for r := int64(0); r < total; r++ {
			u := perm.Unrank(k, r)
			moves, err := SolveStar(u)
			if err != nil {
				t.Fatal(err)
			}
			if got := Replay(u, moves); !got.IsIdentity() {
				t.Fatalf("SolveStar(%v) ends at %v", u, got)
			}
			if len(moves) > bound {
				t.Fatalf("SolveStar(%v) took %d > ⌊3(k-1)/2⌋ = %d", u, len(moves), bound)
			}
			if len(moves) > maxLen {
				maxLen = len(moves)
			}
		}
		if k >= 3 && maxLen != bound {
			// The AHK bound is tight for every k >= 3.
			t.Errorf("k=%d: worst star solution %d, bound %d should be attained", k, maxLen, bound)
		}
	}
}

// TestSolveRotatorExhaustive plays the rotator game, one box of insertion
// balls, from every state with k <= 7: each route is at most k-1 moves.
func TestSolveRotatorExhaustive(t *testing.T) {
	for k := 2; k <= 7; k++ {
		rules := Rules{Layout: MustLayout(1, k-1), Nucleus: InsertionNucleus, Super: NoSuper}
		bound := k - 1
		total := perm.Factorial(k)
		for r := int64(0); r < total; r++ {
			u := perm.Unrank(k, r)
			moves, err := Solve(rules, u)
			if err != nil {
				t.Fatal(err)
			}
			if got := Replay(u, moves); !got.IsIdentity() {
				t.Fatalf("rotator game from %v ends at %v", u, got)
			}
			if len(moves) > bound {
				t.Fatalf("rotator game from %v took %d > %d", u, len(moves), bound)
			}
		}
	}
}

// TestQuickSolveLargeLayouts property-tests the solver on layouts too large
// to enumerate: random configurations must be solved legally within bound.
func TestQuickSolveLargeLayouts(t *testing.T) {
	layouts := []Layout{MustLayout(3, 3), MustLayout(2, 4), MustLayout(4, 3), MustLayout(3, 4)}
	f := func(seed uint64, pick uint8) bool {
		ly := layouts[int(pick)%len(layouts)]
		rng := perm.NewRNG(seed)
		u := perm.Random(ly.K(), rng)
		for _, rules := range allRules(ly) {
			moves, err := Solve(rules, u)
			if err != nil {
				t.Logf("%s: %v", rules, err)
				return false
			}
			if err := Verify(rules, u, moves); err != nil {
				t.Logf("%s: %v", rules, err)
				return false
			}
			if len(moves) > WorstCaseBound(rules) {
				t.Logf("%s: length %d > bound %d", rules, len(moves), WorstCaseBound(rules))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestInsertionBeatsTranspositionOnColor0 verifies the §2.3 claim: insertion
// play wastes far fewer steps on the color-0 ball. Averaged over random
// instances, the insertion solver should not be longer than the
// transposition solver.
func TestInsertionBeatsTranspositionOnColor0(t *testing.T) {
	ly := MustLayout(3, 3)
	rng := perm.NewRNG(17)
	var sumT, sumI int
	const trials = 200
	for i := 0; i < trials; i++ {
		u := perm.Random(ly.K(), rng)
		mt, err := Solve(Rules{Layout: ly, Nucleus: TranspositionNucleus, Super: SwapSuper}, u)
		if err != nil {
			t.Fatal(err)
		}
		mi, err := Solve(Rules{Layout: ly, Nucleus: InsertionNucleus, Super: SwapSuper}, u)
		if err != nil {
			t.Fatal(err)
		}
		sumT += len(mt)
		sumI += len(mi)
	}
	t.Logf("avg transposition-play length %.2f, insertion-play length %.2f",
		float64(sumT)/trials, float64(sumI)/trials)
	if sumI > sumT {
		t.Errorf("insertion play (%d total) longer than transposition play (%d total)", sumI, sumT)
	}
}

func TestReplayAndMoveNames(t *testing.T) {
	u := perm.MustNew([]int{5, 3, 4, 2, 6, 7, 1})
	rules := Rules{Layout: MustLayout(3, 2), Nucleus: TranspositionNucleus, Super: SwapSuper}
	moves, err := Solve(rules, u)
	if err != nil {
		t.Fatal(err)
	}
	if !Replay(u, moves).IsIdentity() {
		t.Error("Replay does not reach identity")
	}
	names := MoveNames(moves)
	if len(names) != len(moves) {
		t.Fatal("MoveNames length mismatch")
	}
	for _, nm := range names {
		if nm == "" {
			t.Error("empty move name")
		}
	}
}

func TestVerifyCatchesIllegalMove(t *testing.T) {
	u := perm.MustNew([]int{2, 1, 3, 4, 5})
	rules := Rules{Layout: MustLayout(2, 2), Nucleus: TranspositionNucleus, Super: SwapSuper}
	moves, err := Solve(rules, u)
	if err != nil {
		t.Fatal(err)
	}
	// Insertion moves are not permissible in the MS (transposition) game.
	illegal, err := Solve(Rules{Layout: MustLayout(2, 2), Nucleus: InsertionNucleus, Super: SwapSuper}, u)
	if err != nil {
		t.Fatal(err)
	}
	hasNonT2 := false
	for _, g := range illegal {
		if g.Name() != "T2" && g.Name() != "I2" && g.Name() != "S2" {
			hasNonT2 = true
		}
	}
	if hasNonT2 {
		if err := Verify(rules, u, illegal); err == nil {
			t.Error("Verify accepted insertion moves under transposition rules")
		}
	}
	// Truncated solutions must fail.
	if len(moves) > 0 {
		if err := Verify(rules, u, moves[:len(moves)-1]); err == nil {
			t.Error("Verify accepted truncated solution")
		}
	}
}

func BenchmarkSolveBallsToBoxes(b *testing.B) {
	rules := Rules{Layout: MustLayout(4, 3), Nucleus: TranspositionNucleus, Super: SwapSuper}
	rng := perm.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := perm.Random(13, rng)
		if _, err := Solve(rules, u); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveInsertionRotation(b *testing.B) {
	rules := Rules{Layout: MustLayout(4, 3), Nucleus: InsertionNucleus, Super: RotCompleteSuper}
	rng := perm.NewRNG(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := perm.Random(13, rng)
		if _, err := Solve(rules, u); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveStarK13(b *testing.B) {
	rng := perm.NewRNG(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := perm.Random(13, rng)
		if _, err := SolveStar(u); err != nil {
			b.Fatal(err)
		}
	}
}

// Replay applies moves to u and returns the resulting configuration.
func Replay(u perm.Perm, moves []gen.Generator) perm.Perm {
	cfg := u.Clone()
	for _, g := range moves {
		g.Apply(cfg)
	}
	return cfg
}
