package topology

import (
	"fmt"

	"repro/internal/bag"
	"repro/internal/gen"
	"repro/internal/perm"
)

// Route returns a legal move (link) sequence from node src to node dst: the
// generators, applied to src in order by right multiplication, end at dst.
// By vertex symmetry this reduces to solving the ball-arrangement game from
// configuration dst⁻¹ ∘ src to the identity.
func (nw *Network) Route(src, dst perm.Perm) ([]gen.Generator, error) {
	var sc RouteScratch
	return sc.RouteInto(nw, src, dst)
}

// RouteLen returns the length of the route our algorithms produce from src
// to dst (an upper bound on the true distance).
func (nw *Network) RouteLen(src, dst perm.Perm) (int, error) {
	moves, err := nw.Route(src, dst)
	if err != nil {
		return 0, err
	}
	return len(moves), nil
}

// VerifyRoute replays moves from src and checks that every move is one of
// the network's generators and that the walk ends at dst.
func (nw *Network) VerifyRoute(src, dst perm.Perm, moves []gen.Generator) error {
	var sc RouteScratch
	return sc.VerifyRouteInto(nw, src, dst, moves)
}

// routeRotationSubset routes in a rotation-subset network: solve the
// complete-rotation game, then expand each R^t into a word over the
// available exponents (§3.3.4).
func (nw *Network) routeRotationSubset(u perm.Perm) ([]gen.Generator, error) {
	moves, err := bag.Solve(nw.rules, u)
	if err != nil {
		return nil, err
	}
	var out []gen.Generator
	for _, m := range moves {
		if m.Kind() != gen.Rotation {
			out = append(out, m)
			continue
		}
		word, err := RotationExpansion(nw.l, m.Index(), nw.rotSubset)
		if err != nil {
			return nil, err
		}
		for _, e := range word {
			out = append(out, gen.NewRotation(e, nw.n))
		}
	}
	return out, nil
}

// routeRecursive routes in a recursive MS: solve the outer MS game, then
// expand every outer transposition into its inner-MS word (§3.3.4).
func (nw *Network) routeRecursive(u perm.Perm) ([]gen.Generator, error) {
	moves, err := bag.Solve(nw.rules, u)
	if err != nil {
		return nil, err
	}
	var out []gen.Generator
	for _, m := range moves {
		if m.Kind() != gen.Transposition {
			out = append(out, m)
			continue
		}
		word, ok := nw.recursive.dict[m.Index()]
		if !ok {
			return nil, fmt.Errorf("topology: routeRecursive: no expansion for %s", m.Name())
		}
		out = append(out, word...)
	}
	return out, nil
}

// The baseline solvers (pancake prefix-reversal sort, bubble insertion
// sort, transposition cycle chasing) live on RouteScratch in scratch.go;
// RouteInto reaches them through their rows of the family table.
