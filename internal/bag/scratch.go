package bag

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/perm"
)

// Scratch is a reusable solver workspace. After a warm-up call per game
// shape, its Solve* methods run without heap allocation, which is what lets
// the /v1/route handler answer steady-state requests at 0 allocs/op.
//
// The move slices returned by Scratch methods alias the workspace: they are
// valid only until the next call on the same Scratch and must be copied if
// retained. A Scratch is not safe for concurrent use; pool instances
// instead.
type Scratch struct {
	st   state
	best []gen.Generator
}

// reset rebinds the embedded state to (rules, u, offset), growing buffers
// only when a larger game than any seen before arrives. The game is
// abandoned once it has limit moves (maxMoves: never).
func (sc *Scratch) reset(rules Rules, u []int, offset, limit int) *state {
	s := &sc.st
	s.rules = rules
	s.limit = limit
	k := len(u)
	if cap(s.cfg) < k {
		s.cfg = make(perm.Perm, k)
	}
	s.cfg = s.cfg[:k]
	copy(s.cfg, u)
	l := rules.Layout.L
	if cap(s.boxColor) < l {
		s.boxColor = make([]int, l)
	}
	s.boxColor = s.boxColor[:l]
	for j := 1; j <= l; j++ {
		s.boxColor[j-1] = (j-1+offset)%l + 1
	}
	s.moves = s.moves[:0]
	return s
}

// validatePerm is the hot-path stand-in for perm.Validate: the boolean check
// is allocation-free and the error is constructed only on failure.
func validatePerm(u perm.Perm) error {
	if u.Valid() {
		return nil
	}
	if err := u.Validate(); err != nil {
		return err
	}
	return fmt.Errorf("bag: configuration of %d symbols exceeds the 64-symbol limit", len(u))
}

// rotational reports whether the rules' games take a cyclic color offset.
func rotational(rules Rules) bool {
	return rules.Super == RotSingleSuper || rules.Super == RotPairSuper || rules.Super == RotCompleteSuper
}

// validateGame checks rules and configuration once per solve.
func validateGame(rules Rules, u perm.Perm) error {
	if err := rules.Validate(); err != nil {
		return err
	}
	if len(u) != rules.Layout.K() {
		return fmt.Errorf("bag: Solve: configuration has %d balls, layout wants %d", len(u), rules.Layout.K())
	}
	return validatePerm(u)
}

// SolveWithOffset is the workspace-reusing form of the package-level
// SolveWithOffset. The returned slice aliases the Scratch.
func (sc *Scratch) SolveWithOffset(rules Rules, u perm.Perm, offset int) ([]gen.Generator, error) {
	if err := validateGame(rules, u); err != nil {
		return nil, err
	}
	rot := rotational(rules)
	if offset != 0 && !rot {
		return nil, fmt.Errorf("bag: Solve: offset %d requires a rotation super style", offset)
	}
	if offset < 0 || (rot && offset >= rules.Layout.L) {
		return nil, fmt.Errorf("bag: Solve: offset %d out of range 0..%d", offset, rules.Layout.L-1)
	}
	moves, _, err := sc.play(rules, u, offset, maxMoves)
	return moves, err
}

// play runs the game of a validated (rules, u, offset). It reports false,
// and no moves, when the game reached limit moves and was abandoned.
func (sc *Scratch) play(rules Rules, u []int, offset, limit int) ([]gen.Generator, bool, error) {
	s := sc.reset(rules, u, offset, limit)
	switch {
	case s.quotient:
		s.solveQuotient()
	case rules.Nucleus == TranspositionNucleus:
		s.solveTransposition()
	case rules.Nucleus == InsertionNucleus:
		s.solveInsertion()
	default:
		return nil, false, fmt.Errorf("bag: Solve: unknown nucleus style %v", rules.Nucleus)
	}
	if s.abandoned() {
		return nil, false, nil
	}
	if !s.solved() {
		return nil, false, fmt.Errorf("bag: Solve: internal error: final configuration %v is not the goal", s.cfg)
	}
	return s.moves, true, nil
}

// solved reports whether the game is at its goal: the identity, or in the
// quotient game the identity's colors, with color 0 written l+1.
func (s *state) solved() bool {
	if !s.quotient {
		return s.cfg.IsIdentity()
	}
	ly := s.rules.Layout
	for i, c := range s.cfg {
		want := ly.ColorOf(i + 1)
		if want == 0 {
			want = ly.L + 1
		}
		if c != want {
			return false
		}
	}
	return true
}

// Solve is the workspace-reusing form of the package-level Solve. The
// returned slice aliases the Scratch.
func (sc *Scratch) Solve(rules Rules, u perm.Perm) ([]gen.Generator, error) {
	if err := validateGame(rules, u); err != nil {
		return nil, err
	}
	return sc.search(rules, u)
}

// search solves a validated game. For rotation-style games it plays offset
// 0 to the end, then abandons each later offset's game once it has as many
// moves as the best route so far. Only a strictly shorter route replaces
// the best one, so this returns the same route as playing every offset to
// the end and keeping the first shortest.
func (sc *Scratch) search(rules Rules, u []int) ([]gen.Generator, error) {
	if !rotational(rules) {
		moves, _, err := sc.play(rules, u, 0, maxMoves)
		return moves, err
	}
	limit := maxMoves
	for b := 0; b < rules.Layout.L; b++ {
		moves, done, err := sc.play(rules, u, b, limit)
		if err != nil {
			return nil, err
		}
		if done {
			// Keep the winner's buffer and play on in the old best's.
			sc.best, sc.st.moves = moves, sc.best
			limit = len(moves)
		}
	}
	return sc.best, nil
}

// SolveStar is the workspace-reusing form of the package-level SolveStar.
// The returned slice aliases the Scratch.
func (sc *Scratch) SolveStar(u perm.Perm) ([]gen.Generator, error) {
	return sc.solveOneBox(TranspositionNucleus, u)
}

// SolveRotator is the workspace-reusing form of the package-level
// SolveRotator. The returned slice aliases the Scratch.
func (sc *Scratch) SolveRotator(u perm.Perm) ([]gen.Generator, error) {
	return sc.solveOneBox(InsertionNucleus, u)
}

// solveOneBox is Solve on the game of len(u) balls with one box, (1, k-1),
// no box moves and the given ball moves.
func (sc *Scratch) solveOneBox(nucleus NucleusStyle, u perm.Perm) ([]gen.Generator, error) {
	if len(u) < 2 {
		if err := validatePerm(u); err != nil {
			return nil, err
		}
		return nil, nil
	}
	return sc.Solve(Rules{Layout: Layout{L: 1, N: len(u) - 1}, Nucleus: nucleus, Super: NoSuper}, u)
}
