package core

import (
	"fmt"

	"repro/internal/perm"
)

// ShortestPath returns a minimum-hop generator-index sequence from src to
// dst (k <= MaxExplicitK). It is the exact-routing oracle used to measure
// how far the game solvers are from optimal. It searches from the
// identity only: left multiplication by src⁻¹ is an automorphism, so the
// path is the one from I to x = src⁻¹∘dst, found by walking back from x
// along any generator g whose predecessor x∘g⁻¹ is one hop closer.
func (g *Graph) ShortestPath(src, dst perm.Perm) ([]int, error) {
	k := g.K()
	if k > MaxExplicitK {
		return nil, fmt.Errorf("core: ShortestPath: k=%d exceeds MaxExplicitK", k)
	}
	if len(src) != k || len(dst) != k {
		return nil, fmt.Errorf("core: ShortestPath: label size mismatch")
	}
	if src.Equal(dst) {
		return nil, nil
	}
	prof, err := g.BFS(perm.Identity(k))
	if err != nil {
		return nil, err
	}
	x := src.Inverse().Compose(dst)
	d := prof.Dist.At(x.Rank())
	if d < 0 {
		return nil, fmt.Errorf("core: ShortestPath: %v unreachable from %v", dst, src)
	}
	inv := make([]perm.Perm, len(g.genPerms))
	for i, gp := range g.genPerms {
		inv[i] = gp.Inverse()
	}
	path := make([]int, d)
	pred := make(perm.Perm, k)
	for ; d > 0; d-- {
		for i, gi := range inv {
			x.ComposeInto(gi, pred)
			if prof.Dist.At(pred.Rank()) == d-1 {
				path[d-1] = i
				x, pred = pred, x
				break
			}
		}
	}
	return path, nil
}

// WalkLinks applies the generator-index sequence to src and returns the end
// node; used to validate ShortestPath results. The walk ping-pongs between
// two fixed buffers with ComposeInto, so it allocates the result and
// nothing else regardless of path length.
func (g *Graph) WalkLinks(src perm.Perm, links []int) (perm.Perm, error) {
	cur := src.Clone()
	buf := make(perm.Perm, len(src))
	for _, li := range links {
		if li < 0 || li >= len(g.genPerms) {
			return nil, fmt.Errorf("core: WalkLinks: link %d out of range", li)
		}
		cur.ComposeInto(g.genPerms[li], buf)
		cur, buf = buf, cur
	}
	return cur, nil
}

// StretchStats summarizes how a routing algorithm's path lengths compare to
// exact shortest paths over sampled node pairs.
type StretchStats struct {
	Pairs       int
	MeanStretch float64 // mean of (algorithmic length / exact distance)
	MaxStretch  float64
	Optimal     int // pairs where the algorithm matched the exact distance
}

// MeasureStretch samples `pairs` random (src, dst) pairs and compares the
// supplied route function against exact BFS distances. route must return a
// walk of generator applications from src to dst (its length is what's
// measured). One search from the identity gives every pair's distance as
// dist(I, src⁻¹∘dst).
func (g *Graph) MeasureStretch(pairs int, seed uint64, route func(src, dst perm.Perm) (int, error)) (*StretchStats, error) {
	k := g.K()
	if k > MaxExplicitK {
		return nil, fmt.Errorf("core: MeasureStretch: k=%d too large", k)
	}
	prof, err := g.BFS(perm.Identity(k))
	if err != nil {
		return nil, err
	}
	rng := perm.NewRNG(seed)
	st := &StretchStats{}
	var sum float64
	for i := 0; i < pairs; i++ {
		src := perm.Random(k, rng)
		dst := perm.Random(k, rng)
		if src.Equal(dst) {
			continue
		}
		exact := int(prof.Dist.At(src.Inverse().Compose(dst).Rank()))
		if exact < 0 {
			return nil, fmt.Errorf("core: MeasureStretch: %v unreachable from %v", dst, src)
		}
		alg, err := route(src, dst)
		if err != nil {
			return nil, err
		}
		if alg < exact {
			return nil, fmt.Errorf("core: MeasureStretch: algorithm length %d below exact %d for %v->%v", alg, exact, src, dst)
		}
		stretch := float64(alg) / float64(exact)
		sum += stretch
		if stretch > st.MaxStretch {
			st.MaxStretch = stretch
		}
		if alg == exact {
			st.Optimal++
		}
		st.Pairs++
	}
	if st.Pairs > 0 {
		st.MeanStretch = sum / float64(st.Pairs)
	}
	return st, nil
}
