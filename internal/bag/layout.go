// Package bag implements the ball-arrangement game (BAG) of Yeh &
// Varvarigos (ICPP 2001, §2) and the algorithms that solve it. Solving a
// game instance from configuration U to the identity arrangement is exactly
// routing from node U to node I in the corresponding super Cayley graph, so
// the solvers in this package double as the routing algorithms for every
// network in internal/topology.
//
// # Game model
//
// There are k = n·l + 1 balls numbered 1..k. Ball 1 has color 0 (the
// "outside ball" of the solved game); ball s > 1 has color ⌈(s-1)/n⌉. A
// configuration is a permutation U of 1..k: position 1 is the outside slot
// and positions (j-1)n+2 .. jn+1 form the box at slot j. The goal
// configuration is the identity permutation: ball 1 outside and box slot i
// holding the color-i balls in ascending order.
//
// The star game is the game with one box (l = 1, n = k-1), transposition
// balls and no box moves (SolveStar); the rotator game, which the IS
// network also plays, is the same with insertion balls.
//
// # Quotient game
//
// In the quotient game of §4.3 (SolveQuotient), balls of one color are
// indistinguishable, so a configuration is a label: position i holds the
// color of its ball, with color 0 written l+1 so that the colors run
// 1..l+1. The goal label is the identity's colors, l+1 followed by n 1s,
// n 2s, ..., n ls. Its states are the nodes of the super-index-permutation
// graphs in internal/ipg.
package bag

import "fmt"

// Layout fixes the box structure of a game: l boxes of n balls each, plus
// the outside ball, for k = n·l + 1 balls total.
type Layout struct {
	L int // number of boxes
	N int // balls per box (super-symbol length)
}

// NewLayout validates and returns a Layout.
func NewLayout(l, n int) (Layout, error) {
	if l < 1 || n < 1 {
		return Layout{}, fmt.Errorf("bag: NewLayout(%d,%d): need l >= 1 and n >= 1", l, n)
	}
	return Layout{L: l, N: n}, nil
}

// MustLayout is like NewLayout but panics on error.
func MustLayout(l, n int) Layout {
	ly, err := NewLayout(l, n)
	if err != nil {
		panic(err)
	}
	return ly
}

// K returns the total number of balls, n·l + 1.
func (ly Layout) K() int { return ly.N*ly.L + 1 }

// ColorOf returns the color of ball s: 0 for ball 1, otherwise the index of
// the box the ball belongs to in the goal configuration (1..l).
func (ly Layout) ColorOf(s int) int {
	if s == 1 {
		return 0
	}
	return (s-2)/ly.N + 1
}

// HomeOffset returns the 1-based offset within its home box at which ball s
// (s > 1) sits in the goal configuration.
func (ly Layout) HomeOffset(s int) int {
	if s <= 1 {
		panic("bag: HomeOffset: ball 1 lives outside the boxes")
	}
	return (s-2)%ly.N + 1
}

// BoxStart returns the 1-based permutation position of the first ball of the
// box at slot j (1..l).
func (ly Layout) BoxStart(j int) int {
	if j < 1 || j > ly.L {
		panic(fmt.Sprintf("bag: BoxStart(%d): slot out of range 1..%d", j, ly.L))
	}
	return (j-1)*ly.N + 2
}

// SlotOfPosition returns the box slot (1..l) containing 1-based permutation
// position pos, or 0 for the outside slot (pos == 1).
func (ly Layout) SlotOfPosition(pos int) int {
	if pos == 1 {
		return 0
	}
	if pos < 1 || pos > ly.K() {
		panic(fmt.Sprintf("bag: SlotOfPosition(%d): out of range 1..%d", pos, ly.K()))
	}
	return (pos-2)/ly.N + 1
}

func (ly Layout) String() string {
	return fmt.Sprintf("Layout(l=%d, n=%d, k=%d)", ly.L, ly.N, ly.K())
}
