package embed

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/perm"
	"repro/internal/topology"
)

func TestTranspositionToStarFactorization(t *testing.T) {
	rng := perm.NewRNG(19)
	k := 7
	for i := 1; i < k; i++ {
		for j := i + 1; j <= k; j++ {
			path, err := TranspositionToStar(i, j)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 5; trial++ {
				u := perm.Random(k, rng)
				want := gen.NewPositionSwap(i, j).ApplyTo(u)
				got := u.Clone()
				for _, g := range path {
					g.Apply(got)
				}
				if !got.Equal(want) {
					t.Fatalf("P(%d,%d): %v vs %v", i, j, got, want)
				}
			}
			if len(path) > 3 {
				t.Fatalf("P(%d,%d): dilation %d > 3", i, j, len(path))
			}
		}
	}
	if _, err := TranspositionToStar(3, 3); err == nil {
		t.Error("i = j accepted")
	}
	if _, err := TranspositionToStar(0, 2); err == nil {
		t.Error("i = 0 accepted")
	}
}

// TestHamiltonianCycles: rings of length N embed in the small instances we
// can search — star(4), the 24-node rotation networks, and MS(2,2).
func TestHamiltonianCycles(t *testing.T) {
	cases := []struct {
		name string
		mk   func() (*topology.Network, error)
	}{
		{"star(4)", func() (*topology.Network, error) { return topology.NewStar(4) }},
		{"complete-RS(3,1)", func() (*topology.Network, error) { return topology.NewCompleteRS(3, 1) }},
		{"rotator(4)", func() (*topology.Network, error) { return topology.NewRotator(4) }},
	}
	for _, c := range cases {
		nw, err := c.mk()
		if err != nil {
			t.Fatal(err)
		}
		cycle, err := HamiltonianCycle(nw.Graph(), 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := VerifyHamiltonianCycle(nw.Graph(), cycle); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		t.Logf("%s: Hamiltonian cycle of length %d found", c.name, len(cycle))
	}
}

// TestSJTCycle: the constructive Steinhaus–Johnson–Trotter Gray code is a
// Hamiltonian cycle of the bubble-sort graph at every k we can verify, and
// through the BubbleToStar embedding it walks the star graph as a closed
// ring emulation with dilation 3 (the [16]-style cycle embedding the paper
// cites).
func TestSJTCycle(t *testing.T) {
	for k := 3; k <= 7; k++ {
		bub, err := topology.New(topology.BubbleSort, 1, k-1)
		if err != nil {
			t.Fatal(err)
		}
		cycle, err := SJTCycle(k)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyGeneratorCycle(bub.Graph(), cycle); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
	// Ring emulation on the star graph: expand each adjacent swap; the walk
	// closes and touches every node at least once.
	cycle, err := SJTCycle(5)
	if err != nil {
		t.Fatal(err)
	}
	starMoves, err := EmulateBubbleOnStar(cycle)
	if err != nil {
		t.Fatal(err)
	}
	if len(starMoves) > 3*len(cycle) {
		t.Fatalf("expanded ring length %d above 3x", len(starMoves))
	}
	star, err := topology.NewStar(5)
	if err != nil {
		t.Fatal(err)
	}
	cur := perm.Identity(5)
	touched := map[int64]bool{cur.Rank(): true}
	set := star.Graph().GeneratorSet()
	for _, m := range starMoves {
		if set.IndexOf(m) < 0 {
			t.Fatalf("move %s is not a star link", m.Name())
		}
		m.Apply(cur)
		touched[cur.Rank()] = true
	}
	if !cur.IsIdentity() {
		t.Fatalf("ring emulation does not close: %v", cur)
	}
	if int64(len(touched)) != star.Nodes() {
		t.Fatalf("ring emulation touched %d of %d nodes", len(touched), star.Nodes())
	}
	if _, err := SJTCycle(2); err == nil {
		t.Error("k=2 accepted")
	}
	if _, err := SJTCycle(11); err == nil {
		t.Error("k=11 accepted")
	}
}

func TestHamiltonianCycleGuards(t *testing.T) {
	nw, err := topology.NewStar(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := HamiltonianCycle(nw.Graph(), 100, 0); err == nil {
		t.Error("oversized graph accepted")
	}
	st, err := topology.NewStar(4)
	if err != nil {
		t.Fatal(err)
	}
	// An absurdly small step budget must fail cleanly.
	if _, err := HamiltonianCycle(st.Graph(), 0, 3); err == nil {
		t.Error("tiny budget should fail")
	}
	// Verification rejects wrong cycles.
	cycle, err := HamiltonianCycle(st.Graph(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyHamiltonianCycle(st.Graph(), cycle[:len(cycle)-1]); err == nil {
		t.Error("truncated cycle accepted")
	}
	bad := append([]int(nil), cycle...)
	bad[0] = 99
	if err := VerifyHamiltonianCycle(st.Graph(), bad); err == nil {
		t.Error("invalid link accepted")
	}
}

// TranspositionToStar maps a transposition-network generator P(i,j) onto a
// star-graph path: P(1,j) is T_j itself and P(i,j) with 2 <= i < j is the
// conjugation T_i ∘ T_j ∘ T_i (dilation 3). Together with BubbleToStar and
// StarToIS/StarToMS this realizes the paper's §3.3 embedding remark for the
// transposition-network case.
func TranspositionToStar(i, j int) ([]gen.Generator, error) {
	if i < 1 || j <= i {
		return nil, fmt.Errorf("embed: TranspositionToStar(%d,%d): need 1 <= i < j", i, j)
	}
	if i == 1 {
		return []gen.Generator{gen.NewTransposition(j)}, nil
	}
	ti := gen.NewTransposition(i)
	return []gen.Generator{ti, gen.NewTransposition(j), ti}, nil
}

// VerifyHamiltonianCycle replays a cycle and checks it visits every node
// exactly once and returns to the start.
func VerifyHamiltonianCycle(g *core.Graph, cycle []int) error {
	n := g.Order()
	if int64(len(cycle)) != n {
		return fmt.Errorf("embed: cycle length %d != N %d", len(cycle), n)
	}
	k := g.K()
	gens := g.GeneratorSet().Perms()
	curNode := perm.Identity(k)
	start := curNode.Rank()
	seen := make(map[int64]bool, n)
	for idx, gi := range cycle {
		if gi < 0 || gi >= len(gens) {
			return fmt.Errorf("embed: cycle step %d uses invalid link %d", idx, gi)
		}
		r := curNode.Rank()
		if seen[r] {
			return fmt.Errorf("embed: node %d revisited at step %d", r, idx)
		}
		seen[r] = true
		curNode = curNode.Compose(gens[gi])
	}
	if curNode.Rank() != start {
		return fmt.Errorf("embed: cycle does not close (ends at %d)", curNode.Rank())
	}
	return nil
}

// VerifyGeneratorCycle replays a generator sequence from the identity of a
// Cayley graph and checks that it visits every node exactly once and closes.
func VerifyGeneratorCycle(g *core.Graph, moves []gen.Generator) error {
	n := g.Order()
	if int64(len(moves)) != n {
		return fmt.Errorf("embed: cycle length %d != N %d", len(moves), n)
	}
	k := g.K()
	set := g.GeneratorSet()
	allowed := make(map[string]bool, set.Len())
	for _, gg := range set.Generators() {
		allowed[gg.AsPerm(k).String()] = true
	}
	cur := perm.Identity(k)
	seen := make(map[int64]bool, n)
	for idx, mv := range moves {
		if !allowed[mv.AsPerm(k).String()] {
			return fmt.Errorf("embed: cycle move %d (%s) is not a graph link", idx, mv.Name())
		}
		r := cur.Rank()
		if seen[r] {
			return fmt.Errorf("embed: node %d revisited at move %d", r, idx)
		}
		seen[r] = true
		mv.Apply(cur)
	}
	if !cur.IsIdentity() {
		return fmt.Errorf("embed: cycle does not close (ends at %v)", cur)
	}
	return nil
}

// HamiltonianCycle searches for a Hamiltonian cycle in a Cayley graph by
// backtracking over generator choices, returning the cyclic generator-index
// sequence (length = N) when found. The search is exact but exponential in
// the worst case, so it is bounded: graphs above maxNodes nodes or searches
// exceeding maxSteps backtracking steps return an error. It demonstrates
// the ring embeddings the paper cites ([16]: cycles embed in star graphs)
// on enumerable instances.
func HamiltonianCycle(g *core.Graph, maxNodes int64, maxSteps int64) ([]int, error) {
	n := g.Order()
	if maxNodes <= 0 {
		maxNodes = 5040
	}
	if maxSteps <= 0 {
		maxSteps = 50_000_000
	}
	if n > maxNodes {
		return nil, fmt.Errorf("embed: HamiltonianCycle: N=%d exceeds limit %d", n, maxNodes)
	}
	tbl, err := g.EnsureNeighborTable(0)
	if err != nil {
		return nil, err
	}
	deg := tbl.Degree()
	start := perm.Identity(g.K()).Rank()
	visited := make([]bool, n)
	visited[start] = true
	path := make([]int, 0, n)
	var steps int64
	// unvisitedDegree counts how many of a node's out-neighbors are still
	// unvisited; Warnsdorff's rule (most-constrained next) makes the search
	// practical on the vertex-symmetric instances we target.
	unvisitedDegree := func(v int64) int {
		c := 0
		for gi := 0; gi < deg; gi++ {
			if !visited[tbl.At(v, gi)] {
				c++
			}
		}
		return c
	}
	var dfs func(at int64, depth int64) bool
	dfs = func(at int64, depth int64) bool {
		steps++
		if steps > maxSteps {
			return false
		}
		if depth == n {
			// Close the cycle: some generator must lead back to start.
			for gi := 0; gi < deg; gi++ {
				if tbl.At(at, gi) == start {
					path = append(path, gi)
					return true
				}
			}
			return false
		}
		// Order candidates by Warnsdorff's rule.
		type cand struct {
			gi   int
			to   int64
			free int
		}
		cands := make([]cand, 0, deg)
		for gi := 0; gi < deg; gi++ {
			to := tbl.At(at, gi)
			if visited[to] {
				continue
			}
			cands = append(cands, cand{gi: gi, to: to, free: unvisitedDegree(to)})
		}
		for i := 1; i < len(cands); i++ {
			for j := i; j > 0 && cands[j].free < cands[j-1].free; j-- {
				cands[j], cands[j-1] = cands[j-1], cands[j]
			}
		}
		for _, c := range cands {
			// A candidate with no onward unvisited neighbor is only viable
			// as the final node of the cycle.
			if c.free == 0 && depth != n-1 {
				continue
			}
			visited[c.to] = true
			path = append(path, c.gi)
			if dfs(c.to, depth+1) {
				return true
			}
			path = path[:len(path)-1]
			visited[c.to] = false
		}
		return false
	}
	if !dfs(start, 1) {
		if steps > maxSteps {
			return nil, fmt.Errorf("embed: HamiltonianCycle: search budget %d exhausted", maxSteps)
		}
		return nil, fmt.Errorf("embed: HamiltonianCycle: %s has no Hamiltonian cycle", g.Name())
	}
	return path, nil
}

// SJTCycle returns the Steinhaus–Johnson–Trotter Hamiltonian cycle of the
// k-dimensional bubble-sort graph: a sequence of k! adjacent-transposition
// generators that visits every permutation exactly once and returns to the
// start. It is constructive (no search), so rings of length k! embed in
// bubble-sort graphs — and, through BubbleToStar / StarToIS, walk any
// star-based super Cayley graph with constant dilation.
func SJTCycle(k int) ([]gen.Generator, error) {
	if k < 3 {
		return nil, fmt.Errorf("embed: SJTCycle: k=%d must be >= 3", k)
	}
	if k > 10 {
		return nil, fmt.Errorf("embed: SJTCycle: k=%d produces %d moves; refusing", k, perm.Factorial(10))
	}
	// Classic SJT with directions: value v at position pos[v], direction
	// dir[v] ∈ {-1,+1}. Repeatedly swap the largest mobile value toward its
	// direction.
	p := perm.Identity(k)
	pos := make([]int, k+1) // pos[v] = 0-based index of value v
	dir := make([]int, k+1)
	for v := 1; v <= k; v++ {
		pos[v] = v - 1
		dir[v] = -1
	}
	var moves []gen.Generator
	for {
		// Find the largest mobile value.
		mobile := 0
		for v := k; v >= 1; v-- {
			np := pos[v] + dir[v]
			if np < 0 || np >= k {
				continue
			}
			if p[np] < v {
				mobile = v
				break
			}
		}
		if mobile == 0 {
			break
		}
		i := pos[mobile]
		j := i + dir[mobile]
		g := gen.NewPositionSwap(min(i, j)+1, max(i, j)+1)
		g.Apply(p)
		pos[mobile], pos[p[i]] = j, i
		moves = append(moves, g)
		// Reverse direction of all values larger than mobile.
		for v := mobile + 1; v <= k; v++ {
			dir[v] = -dir[v]
		}
	}
	// SJT ends at 2 1 3 4 ... k: one adjacent swap closes the cycle.
	if !p.Equal(swapFirstTwo(k)) {
		return nil, fmt.Errorf("embed: SJTCycle: unexpected terminal permutation %v", p)
	}
	moves = append(moves, gen.NewPositionSwap(1, 2))
	return moves, nil
}

func swapFirstTwo(k int) perm.Perm {
	p := perm.Identity(k)
	p.Swap(1, 2)
	return p
}
