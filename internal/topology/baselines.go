package topology

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// Baseline is one of the non-permutation reference topologies of Figures
// 4–6 and §4.3: hypercube, 2-D torus, 3-D torus, k-ary n-cube, and
// cube-connected cycles. Degree and diameter come from closed forms; small
// instances also expose an IndexGraph so the formulas can be cross-checked
// by BFS.
type Baseline struct {
	Name     string
	Nodes    int64
	Degree   int
	Diameter int
	// BisectionLinks is the number of links cut by a best bisection
	// (classical values; used in the Theorem 4.9 comparison).
	BisectionLinks int64
	graph          *core.IndexGraph
}

func (b *Baseline) String() string {
	return fmt.Sprintf("%s: N=%d, degree=%d, diameter=%d", b.Name, b.Nodes, b.Degree, b.Diameter)
}

const maxExplicitBaselineNodes = 1 << 22

// NewHypercube returns the d-dimensional binary hypercube: N = 2^d nodes of
// degree d, diameter d, bisection N/2 links.
func NewHypercube(d int) (*Baseline, error) {
	if d < 1 || d > 62 {
		return nil, fmt.Errorf("topology: NewHypercube(%d): d out of range 1..62", d)
	}
	n := int64(1) << uint(d)
	b := &Baseline{
		Name:           fmt.Sprintf("hypercube(%d)", d),
		Nodes:          n,
		Degree:         d,
		Diameter:       d,
		BisectionLinks: n / 2,
	}
	if n <= maxExplicitBaselineNodes {
		b.graph = &core.IndexGraph{N: n, Out: func(u int64, visit func(int64)) {
			for bit := 0; bit < d; bit++ {
				visit(u ^ (1 << uint(bit)))
			}
		}}
	}
	return b, nil
}

// NewTorus2D returns an a×a 2-D torus (wrap-around mesh): degree 4,
// diameter 2⌊a/2⌋, bisection 2a links.
func NewTorus2D(a int) (*Baseline, error) {
	if a < 2 {
		return nil, fmt.Errorf("topology: NewTorus2D(%d): a must be >= 2", a)
	}
	return newKAryNCube(a, 2)
}

// NewTorus3D returns an a×a×a 3-D torus: degree 6, diameter 3⌊a/2⌋,
// bisection 2a² links.
func NewTorus3D(a int) (*Baseline, error) {
	if a < 2 {
		return nil, fmt.Errorf("topology: NewTorus3D(%d): a must be >= 2", a)
	}
	return newKAryNCube(a, 3)
}

// NewKAryNCube returns the k-ary n-cube: n dimensions of radix a, degree 2n
// (n for a = 2), diameter n⌊a/2⌋, bisection 2·a^{n-1} links (a^{n-1} for
// a = 2).
func NewKAryNCube(a, n int) (*Baseline, error) {
	if a < 2 || n < 1 {
		return nil, fmt.Errorf("topology: NewKAryNCube(%d,%d): need a >= 2, n >= 1", a, n)
	}
	return newKAryNCube(a, n)
}

func newKAryNCube(a, n int) (*Baseline, error) {
	nodes := int64(1)
	for i := 0; i < n; i++ {
		if nodes > (int64(1)<<56)/int64(a) {
			return nil, fmt.Errorf("topology: k-ary n-cube %d^%d too large", a, n)
		}
		nodes *= int64(a)
	}
	degree := 2 * n
	bisection := 2 * nodes / int64(a)
	if a == 2 {
		degree = n // +1 and -1 neighbors coincide
		bisection = nodes / int64(a)
	}
	name := fmt.Sprintf("%d-ary %d-cube", a, n)
	switch n {
	case 2:
		name = fmt.Sprintf("torus2d(%d)", a)
	case 3:
		name = fmt.Sprintf("torus3d(%d)", a)
	}
	b := &Baseline{
		Name:           name,
		Nodes:          nodes,
		Degree:         degree,
		Diameter:       n * (a / 2),
		BisectionLinks: bisection,
	}
	if nodes <= maxExplicitBaselineNodes {
		aa := int64(a)
		b.graph = &core.IndexGraph{N: nodes, Out: func(u int64, visit func(int64)) {
			base := int64(1)
			for dim := 0; dim < n; dim++ {
				digit := (u / base) % aa
				up := u - digit*base + ((digit+1)%aa)*base
				down := u - digit*base + ((digit+aa-1)%aa)*base
				visit(up)
				if down != up {
					visit(down)
				}
				base *= aa
			}
		}}
	}
	return b, nil
}

// NewCCC returns the cube-connected cycles network CCC(d): N = d·2^d nodes
// of degree 3, diameter 2d + ⌊d/2⌋ - 2 for d >= 4 (6 for d = 3, exactly
// computed for smaller d by BFS in tests).
func NewCCC(d int) (*Baseline, error) {
	if d < 3 {
		return nil, fmt.Errorf("topology: NewCCC(%d): d must be >= 3", d)
	}
	nodes := int64(d) << uint(d)
	diam := 2*d + d/2 - 2
	if d == 3 {
		diam = 6
	}
	b := &Baseline{
		Name:           fmt.Sprintf("ccc(%d)", d),
		Nodes:          nodes,
		Degree:         3,
		Diameter:       diam,
		BisectionLinks: int64(1) << uint(d-1),
	}
	if nodes <= maxExplicitBaselineNodes {
		dd := int64(d)
		// Node (cube, pos): index = cube*d + pos. Links: cycle +-1 and the
		// cube edge flipping bit pos.
		b.graph = &core.IndexGraph{N: nodes, Out: func(u int64, visit func(int64)) {
			cube, pos := u/dd, u%dd
			visit(cube*dd + (pos+1)%dd)
			visit(cube*dd + (pos+dd-1)%dd)
			visit((cube^(1<<uint(pos)))*dd + pos)
		}}
	}
	return b, nil
}

// BaselineAtSize returns the smallest instance of the named baseline family
// with at least `nodes` nodes. Family names: "hypercube", "torus2d",
// "torus3d", "ccc". It is used by the figure harness to plot baseline
// curves against super-Cayley sizes.
func BaselineAtSize(family string, nodes int64) (*Baseline, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("topology: BaselineAtSize: need nodes >= 2")
	}
	switch family {
	case "hypercube":
		d := int(math.Ceil(math.Log2(float64(nodes))))
		if d < 1 {
			d = 1
		}
		return NewHypercube(d)
	case "torus2d":
		a := int(math.Ceil(math.Sqrt(float64(nodes))))
		if a < 2 {
			a = 2
		}
		return NewTorus2D(a)
	case "torus3d":
		a := int(math.Ceil(math.Cbrt(float64(nodes))))
		if a < 2 {
			a = 2
		}
		return NewTorus3D(a)
	case "ccc":
		for d := 3; d <= 40; d++ {
			if int64(d)<<uint(d) >= nodes {
				return NewCCC(d)
			}
		}
		return nil, fmt.Errorf("topology: BaselineAtSize: ccc with %d nodes too large", nodes)
	default:
		return nil, fmt.Errorf("topology: BaselineAtSize: unknown family %q", family)
	}
}
