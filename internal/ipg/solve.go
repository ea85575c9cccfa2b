package ipg

import (
	"fmt"

	"repro/internal/bag"
	"repro/internal/gen"
)

// Solve solves the super-index-permutation game: rearrange label u so that
// box j holds only symbol j and the color-0 ball (symbol l+1) is outside.
// Because same-color balls are indistinguishable there are no within-box
// offsets to fix, so solutions are shorter than in the super Cayley case —
// the quantitative advantage §4.3 exploits. The returned moves are
// generators of rules; rotation styles are solved for every cyclic color
// offset and the shortest solution returned. The game is bag's quotient
// game (bag.SolveQuotient), whose labels are SIP labels.
func Solve(rules bag.Rules, u Label) ([]gen.Generator, error) {
	if err := rules.Validate(); err != nil {
		return nil, err
	}
	sig, err := SIPSignature(rules.Layout.L, rules.Layout.N)
	if err != nil {
		return nil, err
	}
	if err := sig.Validate(u); err != nil {
		return nil, err
	}
	return bag.SolveQuotient(rules, u)
}

// Verify replays moves on u and checks legality and the goal.
func Verify(rules bag.Rules, u Label, moves []gen.Generator) error {
	k := rules.Layout.K()
	allowed := map[string]bool{}
	for _, g := range rules.Generators() {
		allowed[g.AsPerm(k).String()] = true
	}
	cfg := u.Clone()
	for i, g := range moves {
		if !allowed[g.AsPerm(k).String()] {
			return fmt.Errorf("ipg: Verify: move %d (%s) not permissible", i, g)
		}
		Apply(g, cfg)
	}
	goal := SIPGoal(rules.Layout.L, rules.Layout.N)
	if !cfg.Equal(goal) {
		return fmt.Errorf("ipg: Verify: ended at %v, want %v", cfg, goal)
	}
	return nil
}
