package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/topology"
)

// cycleStats returns, for p as the function i -> p[i-1], the number of
// cycles counting fixed points, and the number of non-trivial cycles with
// the symbols they hold.
func cycleStats(p perm.Perm) (cycles, nontrivial, moved int) {
	var seen [perm.MaxRankK + 1]bool
	for start := 1; start <= len(p); start++ {
		if seen[start] {
			continue
		}
		n := 0
		for v := start; !seen[v]; v = p[v-1] {
			seen[v] = true
			n++
		}
		cycles++
		if n > 1 {
			nontrivial++
			moved += n
		}
	}
	return cycles, nontrivial, moved
}

func inversions(p perm.Perm) int {
	n := 0
	for i := range p {
		for j := i + 1; j < len(p); j++ {
			if p[i] > p[j] {
				n++
			}
		}
	}
	return n
}

// TestClosedFormDistances checks the engine's distance table on every
// state, k = 3..10 (9 under the race detector, 7 in -short mode), against
// closed forms that need no search at all:
//   - star: m + c, less 2 when symbol 1 is out of place, where c counts
//     the non-trivial cycles and m the symbols in them (Akers, Harel &
//     Krishnamurthy, ICPP 1987);
//   - bubble-sort: the inversion count;
//   - transposition network: k minus the number of cycles, fixed points
//     included.
//
// Each form depends only on the cycle type or the inversion count, both
// invariant under inversion, so the test is blind to which of p and p⁻¹
// the engine labels a state with; it still pins every distance.
func TestClosedFormDistances(t *testing.T) {
	maxK := 10
	switch {
	case testing.Short():
		maxK = 7
	case core.RaceEnabled:
		maxK = 9
	}
	families := []struct {
		name string
		fam  topology.Family
		dist func(p perm.Perm) int
	}{
		{"star", topology.Star, func(p perm.Perm) int {
			_, c, m := cycleStats(p)
			if p[0] != 1 {
				return m + c - 2
			}
			return m + c
		}},
		{"bubble-sort", topology.BubbleSort, inversions},
		{"transposition", topology.TranspositionNet, func(p perm.Perm) int {
			cycles, _, _ := cycleStats(p)
			return len(p) - cycles
		}},
	}
	for _, fam := range families {
		for k := 3; k <= maxK; k++ {
			nw, err := topology.New(fam.fam, 1, k-1)
			if err != nil {
				t.Fatal(err)
			}
			prof, err := nw.Graph().ExactProfile()
			if err != nil {
				t.Fatalf("%s(%d): %v", fam.name, k, err)
			}
			nw.Graph().DropNeighborTable()
			r := int64(0)
			perm.ForEach(k, func(p perm.Perm) bool {
				if p.Rank() != r {
					t.Fatalf("ForEach left rank order at %v, want rank %d", p, r)
				}
				if got, want := prof.Dist.At(r), fam.dist(p); int(got) != want {
					t.Fatalf("%s(%d): state %v (rank %d) at distance %d, closed form %d", fam.name, k, p, r, got, want)
				}
				r++
				return true
			})
			if r != int64(prof.Dist.Len()) {
				t.Fatalf("%s(%d): %d states enumerated, table covers %d", fam.name, k, r, prof.Dist.Len())
			}
		}
	}
}
