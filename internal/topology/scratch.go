package topology

import (
	"fmt"

	"repro/internal/bag"
	"repro/internal/gen"
	"repro/internal/perm"
)

// RouteScratch is a reusable workspace for the allocation-free route path.
// After one warm-up call per network shape, RouteInto and VerifyRouteInto
// run without heap allocation for every family constructible by New; the
// rotation-subset and recursive extensions fall back to the allocating
// expansion path. Move slices returned by RouteInto, and the names
// VerifiedNames returns, alias the scratch and are valid only until the
// next call. Not safe for concurrent use.
type RouteScratch struct {
	bag   bag.Scratch
	inv   perm.Perm // dst⁻¹
	u     perm.Perm // dst⁻¹ ∘ src, the game configuration
	cfg   perm.Perm // replay buffer for local solvers and verification
	moves []gen.Generator
	names []string // the names of the moves VerifyRouteInto last accepted
}

// NewRouteScratch returns an empty workspace; buffers grow on first use.
func NewRouteScratch() *RouteScratch { return &RouteScratch{} }

func (sc *RouteScratch) grow(k int) {
	if cap(sc.inv) < k {
		sc.inv = make(perm.Perm, k)
		sc.u = make(perm.Perm, k)
		sc.cfg = make(perm.Perm, k)
	}
	sc.inv = sc.inv[:k]
	sc.u = sc.u[:k]
	sc.cfg = sc.cfg[:k]
}

// RouteInto is the workspace-reusing form of Route: the returned moves alias
// sc and must be copied if retained past the next call.
func (sc *RouteScratch) RouteInto(nw *Network, src, dst perm.Perm) ([]gen.Generator, error) {
	k := nw.K()
	if len(src) != k || len(dst) != k {
		return nil, fmt.Errorf("topology: Route: node labels must have %d symbols", k)
	}
	if !src.Valid() {
		return nil, labelError(src)
	}
	if !dst.Valid() {
		return nil, labelError(dst)
	}
	sc.grow(k)
	// By vertex symmetry, routing src -> dst reduces to solving the game
	// from u = dst⁻¹ ∘ src: u[i] = inv[src[i]-1].
	for i, v := range dst {
		sc.inv[v-1] = i + 1
	}
	sc.inv.ComposeInto(src, sc.u)
	u := sc.u
	if nw.rotSubset != nil {
		return nw.routeRotationSubset(u)
	}
	if nw.recursive != nil {
		return nw.routeRecursive(u)
	}
	if nw.hasRules {
		return sc.bag.Solve(nw.rules, u)
	}
	return families[nw.family].solve(sc, u)
}

// VerifyRouteInto replays moves from src using sc's buffers and checks that
// every move is one of nw's links and that the walk ends at dst. Membership
// is decided by generator value first, in nw's link table (covering every
// move our solvers emit), and by generator action as a fallback, matching
// VerifyRoute. It keeps each accepted move's name, the link's own from the
// table for every move found there, so VerifiedNames needs no second
// lookup.
func (sc *RouteScratch) VerifyRouteInto(nw *Network, src, dst perm.Perm, moves []gen.Generator) error {
	k := nw.K()
	if len(src) != k || len(dst) != k {
		return fmt.Errorf("topology: VerifyRoute: node labels must have %d symbols", k)
	}
	sc.grow(k)
	cfg := sc.cfg
	copy(cfg, src)
	sc.names = sc.names[:0]
	for idx, g := range moves {
		if j, ok := nw.links.find(g); ok {
			sc.names = append(sc.names, nw.names[j])
		} else if nw.allowedPerm[g.AsPerm(k).String()] {
			sc.names = append(sc.names, g.Name())
		} else {
			sc.names = sc.names[:0]
			return fmt.Errorf("topology: VerifyRoute: move %d (%s) is not a link of %s", idx, g, nw.Name())
		}
		g.Apply(cfg)
	}
	if !cfg.Equal(dst) {
		sc.names = sc.names[:0]
		return fmt.Errorf("topology: VerifyRoute: walk ends at %v, want %v", cfg, dst)
	}
	return nil
}

// VerifiedNames returns the names of the moves the last successful
// VerifyRouteInto accepted, in order and in the paper's notation, as
// MoveName gives them; empty after a failed one.
func (sc *RouteScratch) VerifiedNames() []string { return sc.names }

// MoveName renders g in the paper's notation without allocating when g is
// one of nw's links (the common case for solver output).
func (nw *Network) MoveName(g gen.Generator) string {
	if j, ok := nw.links.find(g); ok {
		return nw.names[j]
	}
	return g.Name()
}

// labelError reproduces Validate's error for a label that failed the
// allocation-free Valid check.
func labelError(p perm.Perm) error {
	if err := p.Validate(); err != nil {
		return err
	}
	return fmt.Errorf("topology: node label of %d symbols exceeds the 64-symbol limit", len(p))
}

// resetLocal primes cfg/moves for the baseline solvers below, the solve
// entries of the pancake, bubble-sort and transposition rows.
func (sc *RouteScratch) resetLocal(u perm.Perm) perm.Perm {
	copy(sc.cfg[:len(u)], u)
	sc.moves = sc.moves[:0]
	return sc.cfg[:len(u)]
}

// solvePancake sorts by prefix reversals: each symbol from k down to 2 is
// flipped to the front, then into place.
func (sc *RouteScratch) solvePancake(u perm.Perm) ([]gen.Generator, error) {
	cfg := sc.resetLocal(u)
	k := len(cfg)
	apply := func(i int) {
		g := gen.NewPrefixReversal(i)
		g.Apply(cfg)
		sc.moves = append(sc.moves, g)
	}
	for target := k; target >= 2; target-- {
		if cfg[target-1] == target {
			continue
		}
		pos := cfg.PositionOf(target)
		if pos != 1 {
			apply(pos)
		}
		apply(target)
	}
	if !cfg.IsIdentity() {
		return nil, fmt.Errorf("topology: solvePancake: ended at %v", cfg)
	}
	return sc.moves, nil
}

// solveBubble sorts by adjacent swaps (insertion sort).
func (sc *RouteScratch) solveBubble(u perm.Perm) ([]gen.Generator, error) {
	cfg := sc.resetLocal(u)
	for i := 1; i < len(cfg); i++ {
		for j := i; j >= 1 && cfg[j] < cfg[j-1]; j-- {
			g := gen.NewPositionSwap(j, j+1)
			g.Apply(cfg)
			sc.moves = append(sc.moves, g)
		}
	}
	if !cfg.IsIdentity() {
		return nil, fmt.Errorf("topology: solveBubble: ended at %v", cfg)
	}
	return sc.moves, nil
}

// solveTranspositionNet sorts by position swaps, chasing each cycle.
func (sc *RouteScratch) solveTranspositionNet(u perm.Perm) ([]gen.Generator, error) {
	cfg := sc.resetLocal(u)
	for pos := 1; pos <= len(cfg); pos++ {
		for cfg[pos-1] != pos {
			other := cfg.PositionOf(pos)
			g := gen.NewPositionSwap(pos, other)
			g.Apply(cfg)
			sc.moves = append(sc.moves, g)
		}
	}
	if !cfg.IsIdentity() {
		return nil, fmt.Errorf("topology: solveTranspositionNet: ended at %v", cfg)
	}
	return sc.moves, nil
}
