package bag

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/perm"
)

// FuzzSolveRoute throws arbitrary (layout, style, configuration) triples at
// the ball-arrangement solver and checks the full routing contract: Solve
// succeeds on every legal game, Verify accepts the returned move sequence
// (every move permissible, final configuration the identity), the length
// respects the paper's worst-case bound — the diameter guarantee the derived
// interconnection networks inherit — and the route is the one a full scan
// of SolveWithOffset over every offset picks (its bounded offset search
// returns no other).
func FuzzSolveRoute(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint8(0), uint8(0), uint64(7))
	f.Add(uint8(1), uint8(4), uint8(1), uint8(0), uint64(0))
	f.Add(uint8(3), uint8(2), uint8(0), uint8(2), uint64(1<<30))
	f.Add(uint8(2), uint8(3), uint8(1), uint8(3), uint64(12345))
	f.Fuzz(func(t *testing.T, rawL, rawN, rawNucleus, rawSuper uint8, rawRank uint64) {
		// Keep k = n*l+1 <= 10 so each input solves in microseconds.
		l := 1 + int(rawL)%3
		n := 1 + int(rawN)%3
		rules := Rules{Layout: MustLayout(l, n)}
		if rawNucleus%2 == 1 {
			rules.Nucleus = InsertionNucleus
		} else {
			rules.Nucleus = TranspositionNucleus
		}
		if l == 1 {
			rules.Super = NoSuper
		} else {
			rules.Super = []SuperStyle{
				SwapSuper, RotSingleSuper, RotPairSuper, RotCompleteSuper,
			}[rawSuper%4]
		}
		if err := rules.Validate(); err != nil {
			t.Fatalf("constructed invalid rules %s: %v", rules, err)
		}

		k := rules.Layout.K()
		rank := int64(rawRank % uint64(perm.Factorial(k)))
		u := perm.Unrank(k, rank)

		moves, err := Solve(rules, u)
		if err != nil {
			t.Fatalf("Solve(%s, %v): %v", rules, u, err)
		}
		if err := Verify(rules, u, moves); err != nil {
			t.Fatalf("Verify(%s, %v, %v): %v", rules, u, MoveNames(moves), err)
		}
		if bound := WorstCaseBound(rules); len(moves) > bound {
			t.Fatalf("Solve(%s, %v) used %d moves, bound is %d", rules, u, len(moves), bound)
		}
		want, err := shortestOffsetScan(rules, u)
		if err != nil {
			t.Fatalf("scan(%s, %v): %v", rules, u, err)
		}
		if !sameMoves(moves, want) {
			t.Fatalf("Solve(%s, %v) = %v, offset scan %v", rules, u, MoveNames(moves), MoveNames(want))
		}
	})
}

// shortestOffsetScan is Solve's oracle: it plays every offset a game
// admits to the end and keeps the first shortest route.
func shortestOffsetScan(rules Rules, u perm.Perm) ([]gen.Generator, error) {
	offsets := 1
	if rotational(rules) {
		offsets = rules.Layout.L
	}
	var best []gen.Generator
	for b := 0; b < offsets; b++ {
		moves, err := SolveWithOffset(rules, u, b)
		if err != nil {
			return nil, err
		}
		if b == 0 || len(moves) < len(best) {
			best = moves
		}
	}
	return best, nil
}

func sameMoves(a, b []gen.Generator) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
