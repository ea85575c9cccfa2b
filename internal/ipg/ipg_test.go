package ipg

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/bag"
	"repro/internal/gen"
	"repro/internal/perm"
)

func TestSignatureBasics(t *testing.T) {
	sig, err := NewSignature([]int{2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if sig.K() != 5 || sig.Symbols() != 3 {
		t.Fatalf("K=%d symbols=%d", sig.K(), sig.Symbols())
	}
	order, err := sig.Order()
	if err != nil {
		t.Fatal(err)
	}
	if order != 30 { // 5!/(2!·2!·1!)
		t.Fatalf("order = %d, want 30", order)
	}
	if sig.Sorted().String() != "11223" {
		t.Fatalf("Sorted = %v", sig.Sorted())
	}
	if _, err := NewSignature(nil); err == nil {
		t.Error("empty signature accepted")
	}
	if _, err := NewSignature([]int{2, 0}); err == nil {
		t.Error("zero count accepted")
	}
}

func TestValidate(t *testing.T) {
	sig, _ := NewSignature([]int{2, 1})
	if err := sig.Validate(Label{1, 2, 1}); err != nil {
		t.Errorf("valid label rejected: %v", err)
	}
	for _, bad := range []Label{{1, 1, 1}, {1, 2}, {1, 2, 3}, {0, 1, 2}} {
		if err := sig.Validate(bad); err == nil {
			t.Errorf("invalid label %v accepted", bad)
		}
	}
}

func TestRankUnrankExhaustive(t *testing.T) {
	sigs := [][]int{{2, 1}, {2, 2}, {3, 2}, {1, 1, 1}, {2, 2, 1}, {2, 2, 2, 1}}
	for _, counts := range sigs {
		sig, err := NewSignature(counts)
		if err != nil {
			t.Fatal(err)
		}
		order, err := sig.Order()
		if err != nil {
			t.Fatal(err)
		}
		var prev Label
		for r := int64(0); r < order; r++ {
			l, err := sig.Unrank(r)
			if err != nil {
				t.Fatalf("%v rank %d: %v", counts, r, err)
			}
			if err := sig.Validate(l); err != nil {
				t.Fatalf("%v rank %d invalid: %v", counts, r, err)
			}
			got, err := sig.Rank(l)
			if err != nil {
				t.Fatal(err)
			}
			if got != r {
				t.Fatalf("%v: Rank(Unrank(%d)) = %d", counts, r, got)
			}
			if prev != nil && !lexLess(prev, l) {
				t.Fatalf("%v: not lexicographic at %d: %v !< %v", counts, r, prev, l)
			}
			prev = l
		}
		if _, err := sig.Unrank(order); err == nil {
			t.Errorf("%v: rank out of range accepted", counts)
		}
	}
}

// oracleRank and oracleUnrank are the binomial-based rank and unrank the
// running multinomial replaced: every candidate symbol's arrangements are
// recounted from scratch as a product of binomials.
func oracleRank(sig Signature, l Label) (int64, error) {
	counts := append([]int(nil), sig.Counts...)
	remaining := len(l)
	var rank int64
	for _, s := range l {
		// Count arrangements starting with a smaller symbol.
		for t := 1; t < s; t++ {
			if counts[t-1] == 0 {
				continue
			}
			counts[t-1]--
			ways, err := oracleArrangements(counts, remaining-1)
			if err != nil {
				return 0, err
			}
			counts[t-1]++
			rank += ways
		}
		counts[s-1]--
		remaining--
	}
	return rank, nil
}

func oracleUnrank(sig Signature, rank int64) (Label, error) {
	counts := append([]int(nil), sig.Counts...)
	out := make(Label, sig.K())
	remaining := len(out)
	for i := range out {
		for s := 1; s <= len(counts); s++ {
			if counts[s-1] == 0 {
				continue
			}
			counts[s-1]--
			ways, err := oracleArrangements(counts, remaining-1)
			if err != nil {
				return nil, err
			}
			if rank < ways {
				out[i] = s
				remaining--
				break
			}
			rank -= ways
			counts[s-1]++
		}
	}
	return out, nil
}

// oracleArrangements counts multiset permutations of the given residual
// counts over `total` positions.
func oracleArrangements(counts []int, total int) (int64, error) {
	res := int64(1)
	remaining := total
	for _, c := range counts {
		if c == 0 {
			continue
		}
		ways, err := binomial(remaining, c)
		if err != nil {
			return 0, err
		}
		if ways != 0 && res > (int64(1)<<62)/ways {
			return 0, fmt.Errorf("ipg: arrangements: overflow")
		}
		res *= ways
		remaining -= c
	}
	return res, nil
}

// checkRankAgainstOracle checks Unrank(r) and Rank on its label against
// the oracle, and the round trip.
func checkRankAgainstOracle(t *testing.T, sig Signature, r int64) {
	t.Helper()
	l, err := sig.Unrank(r)
	if err != nil {
		t.Fatalf("%v: Unrank(%d): %v", sig.Counts, r, err)
	}
	want, err := oracleUnrank(sig, r)
	if err != nil {
		t.Fatalf("%v: oracle unrank(%d): %v", sig.Counts, r, err)
	}
	if !l.Equal(want) {
		t.Fatalf("%v: Unrank(%d) = %v, oracle %v", sig.Counts, r, l, want)
	}
	got, err := sig.Rank(l)
	if err != nil {
		t.Fatalf("%v: Rank(%v): %v", sig.Counts, l, err)
	}
	wantRank, err := oracleRank(sig, l)
	if err != nil {
		t.Fatalf("%v: oracle rank(%v): %v", sig.Counts, l, err)
	}
	if got != r || wantRank != r {
		t.Fatalf("%v: Rank(Unrank(%d)) = %d, oracle %d", sig.Counts, r, got, wantRank)
	}
}

// TestRankMatchesBinomialOracle holds the running multinomial to the
// binomial oracle: every rank of small signatures, and sampled ranks of a
// signature with 0.997·2⁶² labels, where m·c_t passes 2⁶⁴.
func TestRankMatchesBinomialOracle(t *testing.T) {
	for _, counts := range [][]int{{1}, {2, 1}, {1, 3}, {2, 2, 1}, {3, 2, 2, 1}, {2, 2, 2, 1}, {1, 1, 1, 1, 1, 1}, {4, 1, 3}} {
		sig, err := NewSignature(counts)
		if err != nil {
			t.Fatal(err)
		}
		order, err := sig.Order()
		if err != nil {
			t.Fatal(err)
		}
		for r := int64(0); r < order; r++ {
			checkRankAgainstOracle(t, sig, r)
		}
	}
	sig, err := NewSignature([]int{3, 3, 3, 4, 6, 12})
	if err != nil {
		t.Fatal(err)
	}
	order, err := sig.Order()
	if err != nil {
		t.Fatal(err)
	}
	if order < 1<<61 {
		t.Fatalf("order %d: want one above 2^61", order)
	}
	rng := perm.NewRNG(11)
	for _, r := range []int64{0, 1, order / 2, order - 2, order - 1} {
		checkRankAgainstOracle(t, sig, r)
	}
	for i := 0; i < 200; i++ {
		checkRankAgainstOracle(t, sig, int64(rng.Uint64()%uint64(order)))
	}
}

// TestRankRefusesOverflowingOrder: above 2⁶² labels Order fails, and Rank
// and Unrank fail with it.
func TestRankRefusesOverflowingOrder(t *testing.T) {
	sig, err := NewSignature([]int{5, 5, 5, 5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sig.Order(); err == nil {
		t.Fatal("Order of 30!/(5!)^6 did not overflow")
	}
	if _, err := sig.Rank(sig.Sorted()); err == nil {
		t.Error("Rank accepted a signature whose order overflows")
	}
	if _, err := sig.Unrank(0); err == nil {
		t.Error("Unrank accepted a signature whose order overflows")
	}
}

// FuzzSignatureRank draws a signature of up to eight symbols with one to
// eight copies each and a rank below its order, and holds Unrank and Rank
// to the round trip and to the binomial oracle. A signature whose order
// overflows must be refused by both.
func FuzzSignatureRank(f *testing.F) {
	f.Add(uint32(0x0), uint64(0))
	f.Add(uint32(0x2d6b3), uint64(1<<40))
	f.Add(uint32(0x7fffffff), uint64(12345))
	f.Add(uint32(0x12345678), uint64(1<<63))
	f.Fuzz(func(t *testing.T, rawCounts uint32, rawRank uint64) {
		symbols := 1 + int(rawCounts&7)
		counts := make([]int, symbols)
		for i := range counts {
			counts[i] = 1 + int(rawCounts>>(3+3*i))&7
		}
		sig, err := NewSignature(counts)
		if err != nil {
			t.Fatal(err)
		}
		order, err := sig.Order()
		if err != nil {
			if _, err := sig.Rank(sig.Sorted()); err == nil {
				t.Fatalf("%v: Rank accepted an overflowing order", counts)
			}
			if _, err := sig.Unrank(0); err == nil {
				t.Fatalf("%v: Unrank accepted an overflowing order", counts)
			}
			return
		}
		checkRankAgainstOracle(t, sig, int64(rawRank%uint64(order)))
	})
}

func lexLess(a, b Label) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func TestApplyMatchesPermutationAction(t *testing.T) {
	// Applying a generator to a label with distinct symbols must match the
	// perm-level action.
	sig, _ := NewSignature([]int{1, 1, 1, 1, 1})
	rng := perm.NewRNG(3)
	gens := []gen.Generator{
		gen.NewTransposition(3), gen.NewInsertion(4),
		gen.NewSelection(5), gen.NewSwap(2, 2), gen.NewRotation(1, 2),
	}
	for trial := 0; trial < 30; trial++ {
		p := perm.Random(5, rng)
		l := Label(append([]int(nil), p...))
		if err := sig.Validate(l); err != nil {
			t.Fatal(err)
		}
		for _, g := range gens {
			want := g.ApplyTo(p)
			got := l.Clone()
			Apply(g, got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: %v vs %v", g, got, want)
				}
			}
		}
	}
}

func TestSIPSignatureAndGoal(t *testing.T) {
	sig, err := SIPSignature(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	order, err := sig.Order()
	if err != nil {
		t.Fatal(err)
	}
	if order != 630 { // 7!/(2!·2!·2!·1!)
		t.Fatalf("SIP(3,2) order = %d, want 630", order)
	}
	goal := SIPGoal(3, 2)
	if goal.String() != "4112233" {
		t.Fatalf("goal = %v", goal)
	}
	if err := sig.Validate(goal); err != nil {
		t.Fatal(err)
	}
	if _, err := SIPSignature(0, 2); err == nil {
		t.Error("l=0 accepted")
	}
}

func sipRules(l, n int, nu bag.NucleusStyle, su bag.SuperStyle) bag.Rules {
	return bag.Rules{Layout: bag.MustLayout(l, n), Nucleus: nu, Super: su}
}

// TestSolveExhaustive solves every SIP(l,n) state under every rule style.
func TestSolveExhaustive(t *testing.T) {
	for _, ln := range []struct{ l, n int }{{2, 2}, {3, 2}, {2, 3}} {
		sig, err := SIPSignature(ln.l, ln.n)
		if err != nil {
			t.Fatal(err)
		}
		order, err := sig.Order()
		if err != nil {
			t.Fatal(err)
		}
		for _, nu := range []bag.NucleusStyle{bag.TranspositionNucleus, bag.InsertionNucleus} {
			for _, su := range []bag.SuperStyle{bag.SwapSuper, bag.RotSingleSuper, bag.RotPairSuper, bag.RotCompleteSuper} {
				rules := sipRules(ln.l, ln.n, nu, su)
				maxLen := 0
				for r := int64(0); r < order; r++ {
					u, err := sig.Unrank(r)
					if err != nil {
						t.Fatal(err)
					}
					moves, err := Solve(rules, u)
					if err != nil {
						t.Fatalf("(%d,%d) %v/%v state %v: %v", ln.l, ln.n, nu, su, u, err)
					}
					if err := Verify(rules, u, moves); err != nil {
						t.Fatalf("(%d,%d) %v/%v: %v", ln.l, ln.n, nu, su, err)
					}
					if len(moves) > maxLen {
						maxLen = len(moves)
					}
				}
				// SIP solutions must never exceed the super Cayley bound for
				// the same rules (fewer constraints to satisfy).
				if bound := bag.WorstCaseBound(rules); maxLen > bound {
					t.Errorf("(%d,%d) %v/%v: worst %d exceeds Cayley bound %d", ln.l, ln.n, nu, su, maxLen, bound)
				}
			}
		}
	}
}

func TestSolveGoalIsEmpty(t *testing.T) {
	rules := sipRules(3, 2, bag.TranspositionNucleus, bag.SwapSuper)
	moves, err := Solve(rules, SIPGoal(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 0 {
		t.Fatalf("goal solved with %d moves", len(moves))
	}
}

func TestSolveRejectsBadInput(t *testing.T) {
	rules := sipRules(3, 2, bag.TranspositionNucleus, bag.SwapSuper)
	if _, err := Solve(rules, Label{1, 2, 3}); err == nil {
		t.Error("wrong-size label accepted")
	}
	if _, err := Solve(bag.Rules{Layout: bag.MustLayout(3, 2)}, nil); err == nil {
		t.Error("nil label accepted")
	}
}

// TestGraphQuotientDiameter: the index-permutation graph is a quotient of
// the super Cayley graph with the same generators, so its diameter cannot
// exceed the Cayley diameter (13 for MS(3,2)).
func TestGraphQuotientDiameter(t *testing.T) {
	rules := sipRules(3, 2, bag.TranspositionNucleus, bag.SwapSuper)
	g, err := NewSIP(3, 2, rules)
	if err != nil {
		t.Fatal(err)
	}
	d, err := g.Diameter()
	if err != nil {
		t.Fatal(err)
	}
	if d > 13 {
		t.Errorf("SIP(3,2) diameter %d exceeds MS(3,2) diameter 13", d)
	}
	if d < 1 {
		t.Errorf("degenerate diameter %d", d)
	}
	t.Logf("SIP(3,2) swap/transposition: N=630, exact diameter %d (MS(3,2): 13)", d)
}

func TestGraphValidation(t *testing.T) {
	sig, _ := NewSignature([]int{2, 2, 1})
	if _, err := NewGraph("x", sig, nil); err == nil {
		t.Error("no generators accepted")
	}
	if _, err := NewGraph("x", sig, []gen.Generator{gen.NewTransposition(9)}); err == nil {
		t.Error("oversized generator accepted")
	}
	// Duplicate actions are deduped.
	g, err := NewGraph("x", sig, []gen.Generator{gen.NewInsertion(2), gen.NewSelection(2), gen.NewTransposition(2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.gens) != 1 {
		t.Errorf("degree %d after dedupe, want 1", len(g.gens))
	}
	if _, err := NewSIP(3, 2, sipRules(2, 2, bag.TranspositionNucleus, bag.SwapSuper)); err == nil {
		t.Error("mismatched rules accepted")
	}
}

func TestBFSSolveConsistency(t *testing.T) {
	// Solver path lengths are upper bounds on BFS distances in the quotient.
	rules := sipRules(3, 2, bag.TranspositionNucleus, bag.RotCompleteSuper)
	g, err := NewSIP(3, 2, rules)
	if err != nil {
		t.Fatal(err)
	}
	// BFS from the goal gives distances *to* each state in the reverse
	// graph; the graph is not symmetric for insertion styles but is for
	// transposition+rotation-complete... rotations are not self-inverse, so
	// measure distances from each sampled state instead.
	sig := g.sig
	order, err := sig.Order()
	if err != nil {
		t.Fatal(err)
	}
	goal := SIPGoal(3, 2)
	goalRank, err := sig.Rank(goal)
	if err != nil {
		t.Fatal(err)
	}
	for r := int64(0); r < order; r += 37 {
		u, err := sig.Unrank(r)
		if err != nil {
			t.Fatal(err)
		}
		res, err := g.BFS(u)
		if err != nil {
			t.Fatal(err)
		}
		exact := res.Dist.At(goalRank)
		if exact < 0 {
			t.Fatalf("goal unreachable from %v", u)
		}
		moves, err := Solve(rules, u)
		if err != nil {
			t.Fatal(err)
		}
		if len(moves) < int(exact) {
			t.Fatalf("solver %d moves below exact %d for %v", len(moves), exact, u)
		}
	}
}

func TestQuickRankRoundTrip(t *testing.T) {
	sig, _ := NewSignature([]int{3, 2, 2, 1})
	order, _ := sig.Order()
	f := func(seed uint64) bool {
		r := int64(perm.NewRNG(seed).Intn(int(order)))
		l, err := sig.Unrank(r)
		if err != nil {
			return false
		}
		got, err := sig.Rank(l)
		return err == nil && got == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSIPRankUnrank(b *testing.B) {
	sig, err := SIPSignature(4, 3)
	if err != nil {
		b.Fatal(err)
	}
	order, err := sig.Order()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l, err := sig.Unrank(int64(i) % order)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sig.Rank(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSIPSolve(b *testing.B) {
	rules := sipRules(4, 3, bag.TranspositionNucleus, bag.SwapSuper)
	sig, err := SIPSignature(4, 3)
	if err != nil {
		b.Fatal(err)
	}
	order, err := sig.Order()
	if err != nil {
		b.Fatal(err)
	}
	rng := perm.NewRNG(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, err := sig.Unrank(int64(rng.Intn(int(order))))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Solve(rules, u); err != nil {
			b.Fatal(err)
		}
	}
}

func TestQuickApplyPreservesSignature(t *testing.T) {
	sig, err := SIPSignature(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	order, _ := sig.Order()
	rules := sipRules(3, 2, bag.InsertionNucleus, bag.RotCompleteSuper)
	gens := rules.Generators()
	f := func(seed uint64) bool {
		rng := perm.NewRNG(seed)
		l, err := sig.Unrank(int64(rng.Intn(int(order))))
		if err != nil {
			return false
		}
		g := gens[rng.Intn(len(gens))]
		Apply(g, l)
		return sig.Validate(l) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Unrank reconstructs the label with the given lexicographic rank.
func (sig Signature) Unrank(rank int64) (Label, error) {
	order, err := sig.Order()
	if err != nil {
		return nil, err
	}
	if rank < 0 || rank >= order {
		return nil, fmt.Errorf("ipg: Unrank: rank %d out of range 0..%d", rank, order-1)
	}
	out := make(Label, sig.K())
	sig.unrank(rank, out, make([]int, len(sig.Counts)), order)
	return out, nil
}
