package bag

import "repro/internal/gen"

// solveTransposition runs the Balls-to-Boxes algorithm of §2.1 (and its
// rotation variants from §2.2): balls move by exchanging the outside ball
// with a ball of the leftmost box; boxes move by swaps or rotations.
//
// Phase 1 empties the outside slot and fills every box with its own color
// class at the correct offsets; Phase 2 (swap style) sorts the boxes, or
// (rotation styles) aligns the cyclic order with a final rotation.
func (s *state) solveTransposition() {
	ly := s.rules.Layout
	for {
		if s.abandoned() {
			return
		}
		x := s.cfg[0]
		if x == 1 { // Case 1.1: the outside ball has color 0.
			dirty := s.tFirstDirtySlot()
			if dirty == 0 {
				break // all boxes clean: go to Phase 2
			}
			if dirty != 1 {
				// 1.1.1: leftmost box clean; bring a dirty box to the front.
				s.bringToFront(s.nearestDirtySlot(s.tDirtyBox))
			}
			// 1.1.2: exchange the outside ball with a dirty ball in the
			// leftmost box. The algorithm may pick any dirty ball; we prefer
			// one whose color matches the front box, because its subsequent
			// placement (1.2.2) then needs no box move.
			pick := 0
			for o := 1; o <= ly.N; o++ {
				if !s.tDirtyBall(1, o) {
					continue
				}
				if pick == 0 {
					pick = o
				}
				if ly.ColorOf(s.ballAt(1, o)) == s.boxColor[0] {
					pick = o
					break
				}
			}
			s.record(gen.NewTransposition(1 + pick))
			continue
		}
		// Case 1.2: outside ball has color c != 0.
		c := ly.ColorOf(x)
		if s.boxColor[0] != c {
			// 1.2.1: bring the box of color c to the front.
			s.bringColorToFront(c)
		}
		// 1.2.2: put the outside ball at its correct position in the
		// leftmost box, taking the displaced ball outside.
		s.record(gen.NewTransposition(1 + ly.HomeOffset(x)))
	}
	s.finishBoxes()
}

// finishBoxes restores box order after Phase 1: a star-algorithm sort on box
// colors for the swap style (§2.1 Phase 2), or a single alignment rotation
// for rotation styles (§2.2: "Phase 2 can be completed in at most one
// rotation step").
func (s *state) finishBoxes() {
	ly := s.rules.Layout
	switch s.rules.Super {
	case SwapSuper:
		for {
			if s.boxColorsSorted() {
				return
			}
			if s.boxColor[0] == 1 {
				// 2.2: exchange the leftmost box with any misplaced box.
				for j := 2; j <= ly.L; j++ {
					if s.boxColor[j-1] != j {
						s.applySwap(j)
						break
					}
				}
			} else {
				// 2.3: send the leftmost box to its home slot.
				s.applySwap(s.boxColor[0])
			}
		}
	case RotSingleSuper, RotPairSuper, RotCompleteSuper:
		j := s.slotOfColor(1)
		s.rotateForward((ly.L - j + 1) % ly.L)
	case NoSuper:
		// l = 1: nothing to order.
	}
}

func (s *state) boxColorsSorted() bool {
	for j, c := range s.boxColor {
		if c != j+1 {
			return false
		}
	}
	return true
}
