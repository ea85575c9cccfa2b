package bag

import (
	"fmt"

	"repro/internal/gen"
)

// SolveQuotient solves the quotient game of rules (§4.3), in which balls of
// one color are indistinguishable: u is a label holding each position's
// color, n balls of each color 1..l and the color-0 ball written l+1. The
// goal is the identity's colors: color 0 outside and box j holding color
// j. It plays on the same box moves and color-offset search as Solve and
// returns a fresh slice.
func SolveQuotient(rules Rules, u []int) ([]gen.Generator, error) {
	if err := rules.Validate(); err != nil {
		return nil, err
	}
	if err := validateLabel(rules.Layout, u); err != nil {
		return nil, err
	}
	var sc Scratch
	sc.st.quotient = true
	return sc.search(rules, u)
}

// validateLabel checks that u rearranges the quotient game's goal: with k
// balls and at most n of each color 1..l and one of color l+1, every
// count is exact.
func validateLabel(ly Layout, u []int) error {
	if len(u) != ly.K() {
		return fmt.Errorf("bag: SolveQuotient: label has %d balls, layout wants %d", len(u), ly.K())
	}
	count := make([]int, ly.L+2)
	for _, c := range u {
		if c < 1 || c > ly.L+1 {
			return fmt.Errorf("bag: SolveQuotient: color %d out of range 1..%d", c, ly.L+1)
		}
		count[c]++
		if c <= ly.L && count[c] > ly.N || c == ly.L+1 && count[c] > 1 {
			return fmt.Errorf("bag: SolveQuotient: label %v has too many balls of color %d", u, c)
		}
	}
	return nil
}

// solveQuotient plays the quotient game with the rules of §4.3's
// super-index-permutation graphs. A box is clean when it holds only its
// own color. A colored outside ball has its box brought to the front and
// enters it at the first offset that does not hold that color
// (transpositions) or at offset n+1 (insertions). The color-0 ball parks
// in the nearest dirty box the same way under transpositions, and left of
// the clean suffix under insertions; the game ends when it is outside and
// every box is clean.
func (s *state) solveQuotient() {
	ly := s.rules.Layout
	for {
		if s.abandoned() {
			return
		}
		x := s.cfg[0]
		color0 := x == ly.L+1
		if color0 {
			j := s.nearestDirtySlot(s.qDirtyBox)
			if j == 0 {
				break
			}
			s.bringToFront(j)
		} else {
			s.bringColorToFront(x)
		}
		switch {
		case s.rules.Nucleus == TranspositionNucleus:
			s.record(gen.NewTransposition(1 + s.qStranger(1)))
		case color0:
			s.record(gen.NewInsertion(ly.N + 1 - s.qSuffix(1)))
		default:
			s.record(gen.NewInsertion(ly.N + 1))
		}
	}
	s.finishBoxes()
}

// qStranger returns the first offset of the box at slot j whose ball is
// not the box's color, or 0 if the box is clean.
func (s *state) qStranger(j int) int {
	for o := 1; o <= s.rules.Layout.N; o++ {
		if s.ballAt(j, o) != s.boxColor[j-1] {
			return o
		}
	}
	return 0
}

func (s *state) qDirtyBox(j int) bool { return s.qStranger(j) != 0 }

// qSuffix returns the length of the run of the box's own color at the
// right end of the box at slot j.
func (s *state) qSuffix(j int) int {
	n := s.rules.Layout.N
	o := n
	for o >= 1 && s.ballAt(j, o) == s.boxColor[j-1] {
		o--
	}
	return n - o
}
