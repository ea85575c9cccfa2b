package bag

import "repro/internal/gen"

// solveInsertion runs the insertion-based algorithm of §2.3: the outside
// ball is inserted at a chosen position of the leftmost box (ejecting the
// box's previous leftmost ball), which avoids most of the color-0 dead steps
// that transposition-based play suffers.
//
// Invariant: for the box of color c at slot j, the c_i rightmost balls that
// have color c and ascend form the clean suffix; inserting the next color-c
// ball at its sorted position grows the suffix monotonically. The color-0
// ball, when it surfaces, is parked at the (c_i+1)-th rightmost position of
// a dirty box and pops back out exactly when that box becomes clean.
func (s *state) solveInsertion() {
	ly := s.rules.Layout
	n := ly.N
	for {
		if s.abandoned() {
			return
		}
		x := s.cfg[0]
		if x == 1 { // outside ball has color 0
			dirty := s.iFirstDirtySlot()
			if dirty == 0 {
				break // every box holds its full color class in order
			}
			if dirty != 1 {
				s.bringToFront(s.nearestDirtySlot(s.iDirtyBox))
			}
			// Park ball 1 immediately left of the clean suffix.
			ci := s.iCleanCount(1)
			s.record(gen.NewInsertion(n + 1 - ci))
			continue
		}
		// Outside ball has color c != 0: bring its box to the front and
		// insert at the sorted position within the clean suffix.
		c := ly.ColorOf(x)
		if s.boxColor[0] != c {
			s.bringColorToFront(c)
		}
		ci := s.iCleanCount(1)
		greater := 0
		for o := n; o > n-ci; o-- {
			if s.ballAt(1, o) > x {
				greater++
			} else {
				break
			}
		}
		s.record(gen.NewInsertion(n + 1 - greater))
	}
	s.finishBoxes()
}
