package scg

// Façade for index-permutation graphs (§4.3): ball-arrangement games with
// repeated ball numbers, whose state graphs are Schreier quotients of the
// super Cayley graphs.

import (
	"repro/internal/bag"
	"repro/internal/ipg"
)

// IPG vocabulary re-exported.
type (
	// IPLabel is a multiset-permutation node label.
	IPLabel = ipg.Label
	// IPGraph is an index-permutation graph.
	IPGraph = ipg.Graph
	// IPInterclusterProfile is the §4.3 measurement of an IPGraph.
	IPInterclusterProfile = ipg.InterclusterProfile
)

// NewSIP builds the super-index-permutation graph SIP(l,n) with the given
// game rules: n indistinguishable balls per color plus the color-0 ball
// (symbol l+1).
func NewSIP(l, n int, nucleus bag.NucleusStyle, super bag.SuperStyle) (*IPGraph, error) {
	rules, err := NewGame(l, n, nucleus, super)
	if err != nil {
		return nil, err
	}
	return ipg.NewSIP(l, n, rules)
}

// SIPGoal returns the solved configuration of SIP(l,n).
func SIPGoal(l, n int) IPLabel { return ipg.SIPGoal(l, n) }

// SolveSIP solves the super-index-permutation game from label u.
func SolveSIP(rules GameRules, u IPLabel) ([]Move, error) { return ipg.Solve(rules, u) }

// VerifySIP checks a SIP solution.
func VerifySIP(rules GameRules, u IPLabel, moves []Move) error { return ipg.Verify(rules, u, moves) }
