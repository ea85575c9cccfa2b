package bag

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/perm"
)

// SolveOptimal finds a provably shortest solution of the game (rules, u)
// using iterative-deepening A* over the implicit state graph. Unlike the
// BFS oracle in internal/core it needs O(depth) memory, so it works at any
// k — the cost is exponential time in the solution length, so it is
// practical for instances within a few moves of the diameter at k ≤ 9 and
// for short-distance queries at any size.
//
// The heuristic is
//
//	h(U) = ⌈displaced / maxFix⌉
//
// where displaced counts the positions of U holding a wrong symbol and
// maxFix is the largest number of positions any one permissible move
// changes. A move fixes at most the positions it changes, so h never
// overestimates the distance: it is admissible.
func SolveOptimal(rules Rules, u perm.Perm, maxDepth int) ([]gen.Generator, error) {
	if err := rules.Validate(); err != nil {
		return nil, err
	}
	if len(u) != rules.Layout.K() {
		return nil, fmt.Errorf("bag: SolveOptimal: configuration has %d balls, layout wants %d", len(u), rules.Layout.K())
	}
	if err := u.Validate(); err != nil {
		return nil, err
	}
	if maxDepth <= 0 {
		maxDepth = WorstCaseBound(rules)
	}
	gens := rules.Generators()
	k := rules.Layout.K()
	maxFix := 1
	for _, g := range gens {
		if moved := movedPositions(g, k); moved > maxFix {
			maxFix = moved
		}
	}
	h := func(p perm.Perm) int {
		mis := p.Displacement()
		return (mis + maxFix - 1) / maxFix
	}
	cfg := u.Clone()
	if cfg.IsIdentity() {
		return nil, nil
	}
	srch := &idaState{gens: gens, h: h}
	srch.invIdx = make([]int, len(gens))
	srch.invGen = make([]gen.Generator, len(gens))
	for i, g := range gens {
		srch.invGen[i] = g.Inverse(k)
		srch.invIdx[i] = -1
		ip := srch.invGen[i].AsPerm(k)
		for j, g2 := range gens {
			if g2.AsPerm(k).Equal(ip) {
				srch.invIdx[i] = j
				break
			}
		}
	}
	for bound := h(cfg); bound <= maxDepth; bound++ {
		if srch.search(cfg, 0, bound, -1) {
			out := make([]gen.Generator, len(srch.path))
			copy(out, srch.path)
			return out, nil
		}
	}
	return nil, fmt.Errorf("bag: SolveOptimal: no solution within depth %d", maxDepth)
}

// idaState carries the iterative-deepening search context.
type idaState struct {
	gens   []gen.Generator
	invGen []gen.Generator
	invIdx []int
	h      func(perm.Perm) int
	path   []gen.Generator
}

// search explores cfg at the given depth under an f-bound; prevIdx is the
// index of the move that produced cfg (to prune immediate undo), or -1.
func (s *idaState) search(cfg perm.Perm, depth, bound, prevIdx int) bool {
	if depth+s.h(cfg) > bound {
		return false
	}
	if cfg.IsIdentity() {
		s.path = s.path[:depth]
		return true
	}
	if depth == bound {
		return false
	}
	for gi, g := range s.gens {
		if prevIdx >= 0 && s.invIdx[prevIdx] == gi {
			continue
		}
		g.Apply(cfg)
		if len(s.path) <= depth {
			s.path = append(s.path, g)
		} else {
			s.path[depth] = g
		}
		if s.search(cfg, depth+1, bound, gi) {
			return true
		}
		s.invGen[gi].Apply(cfg)
	}
	return false
}

// movedPositions counts the positions a generator displaces.
func movedPositions(g gen.Generator, k int) int {
	gp := g.AsPerm(k)
	moved := 0
	for i, v := range gp {
		if v != i+1 {
			moved++
		}
	}
	return moved
}
