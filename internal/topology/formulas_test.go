package topology

import (
	"testing"

	"repro/internal/perm"
)

// TestBoundFormulaMatchesInstanceBound: the standalone formula evaluator
// must agree with the bound computed from a constructed instance, for every
// family and parameter choice.
func TestBoundFormulaMatchesInstanceBound(t *testing.T) {
	for _, nw := range smallInstances(t, 9) {
		want, err := DiameterUpperBoundFormula(nw.Family(), nw.L(), nw.N())
		if err != nil {
			t.Fatalf("%s: %v", nw.Name(), err)
		}
		if got := nw.DiameterUpperBound(); got != want {
			t.Errorf("%s: instance bound %d != formula %d", nw.Name(), got, want)
		}
	}
	for k := 2; k <= 8; k++ {
		for _, fam := range []Family{Star, Rotator, Pancake, BubbleSort, TranspositionNet, IS} {
			nw, err := New(fam, 1, k-1)
			if err != nil {
				t.Fatal(err)
			}
			want, err := DiameterUpperBoundFormula(fam, 1, k-1)
			if err != nil {
				t.Fatal(err)
			}
			if got := nw.DiameterUpperBound(); got != want {
				t.Errorf("%s: instance bound %d != formula %d", nw.Name(), got, want)
			}
		}
	}
	if _, err := DiameterUpperBoundFormula(Family(99), 2, 2); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := DegreeFormula(Family(99), 2, 2); err == nil {
		t.Error("unknown family accepted by DegreeFormula")
	}
}

// TestLongestRouteMeetsBound: for each nucleus-only family at k = 3..7,
// the longest route over all k! states is DiameterUpperBound, so the bound
// each family reports is its solver's worst case, not above it.
func TestLongestRouteMeetsBound(t *testing.T) {
	var sc RouteScratch
	for _, fam := range AllFamilies() {
		if fam.IsSuperCayley() {
			continue
		}
		for k := 3; k <= 7; k++ {
			nw, err := New(fam, 1, k-1)
			if err != nil {
				t.Fatal(err)
			}
			id, x, scratch := perm.Identity(k), make(perm.Perm, k), make([]int, k)
			longest := 0
			for r := int64(0); r < nw.Nodes(); r++ {
				perm.UnrankInto(k, r, x, scratch)
				moves, err := sc.RouteInto(nw, id, x)
				if err != nil {
					t.Fatalf("%s: route I -> %v: %v", nw.Name(), x, err)
				}
				longest = max(longest, len(moves))
			}
			if bound := nw.DiameterUpperBound(); longest != bound {
				t.Errorf("%s: longest route %d, bound %d", nw.Name(), longest, bound)
			}
		}
	}
}

// TestExactBaselineDiameters: known exact diameters of the permutation
// baselines at small k (bubble-sort: k(k-1)/2; transposition network: k -
// #cycles max = k-1; pancake: known values 1,3,4,5,7,8 for k=2..7).
func TestExactBaselineDiameters(t *testing.T) {
	pancakeDiam := map[int]int{2: 1, 3: 3, 4: 4, 5: 5, 6: 7, 7: 8}
	for k := 2; k <= 7; k++ {
		bub, err := New(BubbleSort, 1, k-1)
		if err != nil {
			t.Fatal(err)
		}
		d, err := bub.Graph().Diameter()
		if err != nil {
			t.Fatal(err)
		}
		if d != k*(k-1)/2 {
			t.Errorf("bubble(%d) diameter %d, want %d", k, d, k*(k-1)/2)
		}
		tn, err := New(TranspositionNet, 1, k-1)
		if err != nil {
			t.Fatal(err)
		}
		d, err = tn.Graph().Diameter()
		if err != nil {
			t.Fatal(err)
		}
		if d != k-1 {
			t.Errorf("transposition(%d) diameter %d, want %d", k, d, k-1)
		}
		pan, err := New(Pancake, 1, k-1)
		if err != nil {
			t.Fatal(err)
		}
		d, err = pan.Graph().Diameter()
		if err != nil {
			t.Fatal(err)
		}
		if d != pancakeDiam[k] {
			t.Errorf("pancake(%d) diameter %d, want %d", k, d, pancakeDiam[k])
		}
	}
}

// TestISExactDiameters records the IS network's exact diameters — the §3.3.3
// claim that IS-based networks have diameters "optimal within a factor of
// 1 + o(1)".
func TestISExactDiameters(t *testing.T) {
	for k := 3; k <= 7; k++ {
		nw, err := NewIS(k)
		if err != nil {
			t.Fatal(err)
		}
		d, err := nw.Graph().Diameter()
		if err != nil {
			t.Fatal(err)
		}
		if d > nw.DiameterUpperBound() {
			t.Errorf("IS(%d) diameter %d above bound %d", k, d, nw.DiameterUpperBound())
		}
		// IS contains the rotator as a subgraph, so its diameter is at most
		// the rotator's k-1.
		if d > k-1 {
			t.Errorf("IS(%d) diameter %d above rotator diameter %d", k, d, k-1)
		}
		t.Logf("IS(%d): exact diameter %d", k, d)
	}
}

// TestTheorem44 makes Theorem 4.4 executable on DegreeFormula: for the
// families whose degree grows in both l and n (MS, complete-RS, MR,
// complete-RR, MIS, complete-RIS), the degree over all splits l·n = k − 1
// is minimized only at balanced splits, 1/4 <= l/n <= 4, and never at the
// extremes l = 2 or n = 1. RS, RR and RIS are outside the theorem: their
// degree falls as l grows (n + 2, n + 1 and the nucleus's I/S count + 2
// for l >= 3), so their minimum sits at n = 1.
func TestTheorem44(t *testing.T) {
	splits := func(m int) [][2]int {
		var out [][2]int
		for l := 2; l <= m; l++ {
			if m%l == 0 {
				out = append(out, [2]int{l, m / l})
			}
		}
		return out
	}
	minimizers := func(fam Family, m int) (int, [][2]int) {
		best, at := -1, [][2]int(nil)
		for _, s := range splits(m) {
			d, err := DegreeFormula(fam, s[0], s[1])
			if err != nil {
				t.Fatalf("%v(%d,%d): %v", fam, s[0], s[1], err)
			}
			switch {
			case best < 0 || d < best:
				best, at = d, [][2]int{s}
			case d == best:
				at = append(at, s)
			}
		}
		return best, at
	}
	for _, m := range []int{12, 24, 36, 48, 60} {
		for _, fam := range []Family{MS, CompleteRS, MR, CompleteRR, MIS, CompleteRIS} {
			best, at := minimizers(fam, m)
			for _, s := range at {
				l, n := s[0], s[1]
				if 4*l < n || l > 4*n || l == 2 || n == 1 {
					t.Errorf("k-1 = %d: %v reaches its least degree %d at the unbalanced split (%d,%d) (minimizers %v)", m, fam, best, l, n, at)
				}
			}
		}
		for _, fam := range []Family{RS, RR, RIS} {
			if _, at := minimizers(fam, m); at[len(at)-1] != [2]int{m, 1} {
				t.Errorf("k-1 = %d: %v minimizers %v; expected its least degree at n = 1, outside the theorem", m, fam, at)
			}
		}
	}
	// Spot values: MS at k-1 = 12 and MIS at k-1 = 36.
	for _, c := range []struct {
		fam        Family
		l, n, want int
	}{
		{MS, 2, 6, 7}, {MS, 3, 4, 6}, {MS, 4, 3, 6}, {MS, 6, 2, 7}, {MS, 12, 1, 12},
	} {
		if d, err := DegreeFormula(c.fam, c.l, c.n); err != nil || d != c.want {
			t.Errorf("%v(%d,%d) degree %d (%v), want %d", c.fam, c.l, c.n, d, err, c.want)
		}
	}
	if best, at := minimizers(MIS, 36); best != 15 || len(at) != 1 || at[0] != [2]int{9, 4} {
		t.Errorf("MIS at k-1 = 36: least degree %d at %v, want 15 at (9,4)", best, at)
	}
}
