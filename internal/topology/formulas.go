package topology

import (
	"fmt"

	"repro/internal/bag"
)

// DegreeFormula returns the closed-form node degree of a family instance
// without building the graph. It matches Network.Degree() exactly (verified
// by tests) and is what the Figure 4 harness evaluates at sizes beyond
// exhaustive reach.
func DegreeFormula(fam Family, l, n int) (int, error) {
	k := n*l + 1
	switch fam {
	case Star, Rotator, Pancake:
		return n, nil // k-dimensional with k = n+1: degree k-1 = n
	case BubbleSort:
		return n, nil
	case TranspositionNet:
		return (n + 1) * n / 2, nil
	case IS:
		// I_2..I_k plus I_2'..I_k' with I_2' = I_2: 2(k-1) - 1.
		if n == 1 {
			return 1, nil
		}
		return 2*n - 1, nil
	case MS, CompleteRS, MR, CompleteRR:
		if err := checkLN(fam, l, n); err != nil {
			return 0, err
		}
		return n + l - 1, nil
	case RS:
		if err := checkLN(fam, l, n); err != nil {
			return 0, err
		}
		if l == 2 {
			return n + 1, nil // R = R^{-1}
		}
		return n + 2, nil
	case RR:
		if err := checkLN(fam, l, n); err != nil {
			return 0, err
		}
		return n + 1, nil
	case MIS, CompleteRIS:
		if err := checkLN(fam, l, n); err != nil {
			return 0, err
		}
		return nucleusISCount(n) + l - 1, nil
	case RIS:
		if err := checkLN(fam, l, n); err != nil {
			return 0, err
		}
		if l == 2 {
			return nucleusISCount(n) + 1, nil
		}
		return nucleusISCount(n) + 2, nil
	default:
		return 0, fmt.Errorf("topology: DegreeFormula: unknown family %v (k=%d)", fam, k)
	}
}

// nucleusISCount is the number of distinct insertion+selection generators on
// an (n+1)-symbol nucleus: I_2..I_{n+1} and I_2'..I_{n+1}' with I_2' = I_2.
func nucleusISCount(n int) int {
	if n == 1 {
		return 1
	}
	return 2*n - 1
}

// DiameterUpperBound returns the best diameter upper bound this repository's
// routing algorithms guarantee for the instance: bag.WorstCaseBound of its
// game for a game-routed family (for MS the paper's Balls-to-Boxes bound,
// §2.1; for star the AHK bound ⌊3(k-1)/2⌋; for rotator and IS the Corbett
// bound k-1; the rest the §2.2–2.3 move accounting), and its row's closed
// form for pancake, bubble-sort and transposition.
func (nw *Network) DiameterUpperBound() int {
	switch {
	case nw.rotSubset != nil:
		// Each complete-rotation move expands to at most maxExp subset
		// rotations.
		maxExp := 1
		for t := 1; t < nw.l; t++ {
			word, err := RotationExpansion(nw.l, t, nw.rotSubset)
			if err == nil && len(word) > maxExp {
				maxExp = len(word)
			}
		}
		return bag.WorstCaseBound(nw.rules) * maxExp
	case nw.recursive != nil:
		dil, err := nw.RecursiveDilation()
		if err != nil || dil < 1 {
			dil = 1
		}
		return bag.WorstCaseBound(nw.rules) * dil
	case nw.hasRules:
		return bag.WorstCaseBound(nw.rules)
	}
	return families[nw.family].bound(nw.K())
}

// DiameterUpperBoundFormula evaluates the bound without building the
// network; it is used by the figure harness at arbitrary (l,n).
func DiameterUpperBoundFormula(fam Family, l, n int) (int, error) {
	row, ok := fam.row()
	if !ok {
		return 0, fmt.Errorf("topology: DiameterUpperBoundFormula: unknown family %v (k=%d)", fam, n*l+1)
	}
	if row.bound != nil {
		return row.bound(n + 1), nil
	}
	if !row.superCayley {
		l = 1
	}
	ly, err := bag.NewLayout(l, n)
	if err != nil {
		return 0, err
	}
	return bag.WorstCaseBound(bag.Rules{Layout: ly, Nucleus: row.nucleus, Super: row.super}), nil
}

// PaperDiameterBound evaluates the diameter upper-bound formulas stated in
// the paper's theorems, where given:
//
//   - Theorem 4.1: complete-RS(l,n) ≤ ⌊2.5k⌋ + l - 4
//   - Theorem 4.2 (from [32]): MS(l,n) ≤ ⌊2.5nl⌋ + l - 1 + ⌊1.5(l-1)⌋
//   - star graph (AHK):       ⌊3(k-1)/2⌋
//   - rotator (Corbett):      k - 1
//
// The second return value is false for families whose printed formula did
// not survive in the paper text (Theorem 4.3's right-hand sides are
// unreadable in the source scan); callers fall back to
// DiameterUpperBoundFormula for those.
func PaperDiameterBound(fam Family, l, n int) (int, bool) {
	k := n*l + 1
	switch fam {
	case Star:
		return 3 * n / 2, true // k = n+1
	case Rotator:
		return n, true
	case MS:
		return 5*n*l/2 + l - 1 + 3*(l-1)/2, true
	case CompleteRS:
		b := 5*k/2 + l - 4
		if b < 1 {
			b = 1
		}
		return b, true
	default:
		return 0, false
	}
}
