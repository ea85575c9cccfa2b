package core

import (
	"fmt"

	"repro/internal/perm"
)

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
