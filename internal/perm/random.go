package perm

// RNG is a small deterministic pseudo-random generator (SplitMix64) used for
// reproducible sampling of game states and workloads. The repository avoids
// math/rand so that every experiment is bit-reproducible across Go versions.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Distinct seeds give
// independent-looking streams; the zero seed is valid.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("perm: RNG.Intn: n must be positive")
	}
	// Lemire-style rejection-free bound is unnecessary here; modulo bias is
	// negligible for the small n used in experiments, but we still reject to
	// keep samples exactly uniform.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Random returns a uniformly random permutation of k symbols via the
// Fisher–Yates shuffle.
func Random(k int, r *RNG) Perm {
	p := Identity(k)
	for i := k - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
