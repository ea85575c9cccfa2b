package bag

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/perm"
)

// state carries a game in progress: the current ball configuration, the
// color currently assigned to the box at each slot, and the moves performed
// so far. Box colors travel with boxes when boxes move — they are the
// algorithm's bookkeeping (the paper's "assign colors to the boxes so as to
// facilitate the use of algorithms", §2.2), not part of the network node.
type state struct {
	rules    Rules
	cfg      perm.Perm
	boxColor []int // boxColor[j-1] = color of the box currently at slot j
	moves    []gen.Generator
	limit    int   // the game is abandoned once it has limit moves
	rotated  []int // scratch for rotateForward's color-array rotation
	quotient bool  // cfg is a label of colors (SolveQuotient), not balls
}

// maxMoves is the limit of a game that is never abandoned.
const maxMoves = int(^uint(0) >> 1)

// abandoned reports whether the game has reached its move limit: a route
// of limit moves or more is no better than one already found.
func (s *state) abandoned() bool { return len(s.moves) >= s.limit }

func (s *state) record(g gen.Generator) {
	g.Apply(s.cfg)
	s.moves = append(s.moves, g)
}

// slotOfColor returns the slot currently holding the box of color c.
func (s *state) slotOfColor(c int) int {
	for j, col := range s.boxColor {
		if col == c {
			return j + 1
		}
	}
	panic(fmt.Sprintf("bag: slotOfColor: no box has color %d", c))
}

// applySwap performs S_j, exchanging the boxes (and their colors) at slots 1
// and j.
func (s *state) applySwap(j int) {
	s.record(gen.NewSwap(j, s.rules.Layout.N))
	s.boxColor[0], s.boxColor[j-1] = s.boxColor[j-1], s.boxColor[0]
}

// rotateForward performs t forward single-box rotations' worth of movement
// using whichever rotation generators the rules permit, updating box colors.
// t is taken modulo l.
func (s *state) rotateForward(t int) {
	l := s.rules.Layout.L
	n := s.rules.Layout.N
	t = ((t % l) + l) % l
	if t == 0 {
		return
	}
	switch s.rules.Super {
	case RotCompleteSuper:
		s.record(gen.NewRotation(t, n))
	case RotSingleSuper:
		for i := 0; i < t; i++ {
			s.record(gen.NewRotation(1, n))
		}
	case RotPairSuper:
		if t <= l-t || l == 2 {
			for i := 0; i < t; i++ {
				s.record(gen.NewRotation(1, n))
			}
		} else {
			for i := 0; i < l-t; i++ {
				s.record(gen.NewRotation(l-1, n))
			}
		}
	default:
		panic(fmt.Sprintf("bag: rotateForward: unsupported super style %v", s.rules.Super))
	}
	// A forward rotation by t moves the box at slot j to slot j+t (mod l):
	// rotate the color array right by t.
	if cap(s.rotated) < l {
		s.rotated = make([]int, l)
	}
	rotated := s.rotated[:l]
	for j := 0; j < l; j++ {
		rotated[(j+t)%l] = s.boxColor[j]
	}
	copy(s.boxColor, rotated)
}

// rotationCost returns the number of moves rotateForward(t) would emit.
func (s *state) rotationCost(t int) int {
	l := s.rules.Layout.L
	t = ((t % l) + l) % l
	if t == 0 {
		return 0
	}
	switch s.rules.Super {
	case RotCompleteSuper:
		return 1
	case RotSingleSuper:
		return t
	case RotPairSuper:
		if l == 2 {
			return t
		}
		if t <= l-t {
			return t
		}
		return l - t
	default:
		return 0
	}
}

// bringColorToFront moves the box of color c to slot 1 using the permitted
// super moves.
func (s *state) bringColorToFront(c int) { s.bringToFront(s.slotOfColor(c)) }

// bringToFront moves the box at slot j to slot 1 using the permitted super
// moves.
func (s *state) bringToFront(j int) {
	if j == 1 {
		return
	}
	switch s.rules.Super {
	case SwapSuper:
		s.applySwap(j)
	case RotSingleSuper, RotPairSuper, RotCompleteSuper:
		l := s.rules.Layout.L
		s.rotateForward((l - j + 1) % l)
	case NoSuper:
		panic("bag: bringToFront: box moves are not permitted (l = 1)")
	}
}

// ballAt returns the ball at offset o (1..n) of the box at slot j. It
// indexes cfg directly, not through Layout.BoxStart, whose range-check
// panic would keep it and its callers from inlining.
func (s *state) ballAt(j, o int) int {
	return s.cfg[(j-1)*s.rules.Layout.N+o]
}

// --- cleanliness under the transposition nucleus (Balls-to-Boxes, §2.1) ---

// tDirtyBall reports whether the ball at offset o of the box at slot j is
// dirty: wrong color for its box, or right color at the wrong offset. The
// one clean ball there is the one the goal puts at offset o of the box's
// color, ball (c-1)n+o+1.
func (s *state) tDirtyBall(j, o int) bool {
	return s.ballAt(j, o) != (s.boxColor[j-1]-1)*s.rules.Layout.N+o+1
}

// tDirtyBox reports whether the box at slot j contains any dirty ball.
func (s *state) tDirtyBox(j int) bool {
	for o := 1; o <= s.rules.Layout.N; o++ {
		if s.tDirtyBall(j, o) {
			return true
		}
	}
	return false
}

// tFirstDirtySlot returns the lowest slot holding a dirty box, or 0 if every
// box is clean.
func (s *state) tFirstDirtySlot() int {
	for j := 1; j <= s.rules.Layout.L; j++ {
		if s.tDirtyBox(j) {
			return j
		}
	}
	return 0
}

// --- cleanliness under the insertion nucleus (§2.3) ---

// iCleanCount returns c_i for the box at slot j: the number of rightmost
// balls that have the box's color and are in ascending order.
func (s *state) iCleanCount(j int) int {
	ly := s.rules.Layout
	c := s.boxColor[j-1]
	count := 0
	prev := ly.K() + 1 // sentinel above any ball number
	for o := ly.N; o >= 1; o-- {
		b := s.ballAt(j, o)
		if ly.ColorOf(b) != c || b >= prev {
			break
		}
		count++
		prev = b
	}
	return count
}

func (s *state) iDirtyBox(j int) bool { return s.iCleanCount(j) < s.rules.Layout.N }

func (s *state) iFirstDirtySlot() int {
	for j := 1; j <= s.rules.Layout.L; j++ {
		if s.iDirtyBox(j) {
			return j
		}
	}
	return 0
}

// nearestDirtySlot returns the dirty slot that is cheapest to bring to the
// front under the current super style (ties broken by lower slot), or 0 if
// all boxes are clean. dirty is the style-appropriate dirtiness predicate.
func (s *state) nearestDirtySlot(dirty func(int) bool) int {
	l := s.rules.Layout.L
	best, bestCost := 0, int(^uint(0)>>1)
	for j := 1; j <= l; j++ {
		if !dirty(j) {
			continue
		}
		cost := 0
		switch s.rules.Super {
		case SwapSuper, NoSuper:
			if j != 1 {
				cost = 1
			}
		default:
			cost = s.rotationCost((l - j + 1) % l)
		}
		if cost < bestCost {
			best, bestCost = j, cost
		}
	}
	return best
}
