package topology

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/perm"
)

func TestRotationExpansion(t *testing.T) {
	// Z_5 with exponents {2}: 1 = 2+2+2 mod 5 (three steps), 4 = 2+2.
	word, err := RotationExpansion(5, 4, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(word) != 2 {
		t.Fatalf("expansion %v", word)
	}
	// Sum check for random cases.
	cases := []struct {
		l    int
		exps []int
	}{
		{5, []int{2}}, {6, []int{1}}, {6, []int{1, 5}}, {7, []int{3, 5}}, {8, []int{1, 2, 3}},
	}
	for _, c := range cases {
		for tt := 0; tt < c.l; tt++ {
			word, err := RotationExpansion(c.l, tt, c.exps)
			if err != nil {
				t.Fatalf("l=%d t=%d exps=%v: %v", c.l, tt, c.exps, err)
			}
			sum := 0
			for _, e := range word {
				sum += e
			}
			if sum%c.l != tt%c.l {
				t.Fatalf("l=%d t=%d: word %v sums to %d", c.l, tt, word, sum)
			}
		}
	}
	// Unreachable: exponents sharing a factor with l.
	if _, err := RotationExpansion(6, 1, []int{2, 4}); err == nil {
		t.Error("non-generating exponent set accepted by expansion")
	}
	// Zero rotation needs no moves.
	if w, err := RotationExpansion(4, 0, []int{1}); err != nil || len(w) != 0 {
		t.Error("t=0 expansion")
	}
}

func TestRotationSubsetStarValidation(t *testing.T) {
	if _, err := NewRotationSubsetStar(5, 1, nil); err == nil {
		t.Error("empty exponents accepted")
	}
	if _, err := NewRotationSubsetStar(5, 1, []int{0}); err == nil {
		t.Error("exponent 0 accepted")
	}
	if _, err := NewRotationSubsetStar(5, 1, []int{5}); err == nil {
		t.Error("exponent l accepted")
	}
	if _, err := NewRotationSubsetStar(5, 1, []int{2, 2}); err == nil {
		t.Error("duplicate exponent accepted")
	}
	if _, err := NewRotationSubsetStar(6, 1, []int{2, 4}); err == nil {
		t.Error("non-generating exponents accepted")
	}
	if _, err := NewRotationSubsetStar(1, 1, []int{1}); err == nil {
		t.Error("l=1 accepted")
	}
}

func TestRotationSubsetStarSpansRSToCompleteRS(t *testing.T) {
	// Exponents {1,4} ~ RS(5,1); {1,2,3,4} ~ complete-RS(5,1).
	rsLike, err := NewRotationSubsetStar(5, 1, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	complete, err := NewRotationSubsetStar(5, 1, []int{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewRS(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	crs, err := NewCompleteRS(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	dRSLike, err := rsLike.Graph().Diameter()
	if err != nil {
		t.Fatal(err)
	}
	dRS, err := rs.Graph().Diameter()
	if err != nil {
		t.Fatal(err)
	}
	if dRSLike != dRS {
		t.Errorf("subset {1,4} diameter %d != RS diameter %d", dRSLike, dRS)
	}
	dComplete, err := complete.Graph().Diameter()
	if err != nil {
		t.Fatal(err)
	}
	dCRS, err := crs.Graph().Diameter()
	if err != nil {
		t.Fatal(err)
	}
	if dComplete != dCRS {
		t.Errorf("full subset diameter %d != complete-RS diameter %d", dComplete, dCRS)
	}
	// An in-between subset: degree and diameter fall between the extremes.
	mid, err := NewRotationSubsetStar(5, 1, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	dMid, err := mid.Graph().Diameter()
	if err != nil {
		t.Fatal(err)
	}
	if !(mid.Degree() >= rs.Degree() && mid.Degree() <= crs.Degree()) {
		t.Errorf("mid degree %d outside [%d, %d]", mid.Degree(), rs.Degree(), crs.Degree())
	}
	if dMid > dRS || dMid < dCRS {
		t.Errorf("mid diameter %d outside [complete %d, RS %d]", dMid, dCRS, dRS)
	}
}

func TestRotationSubsetRouting(t *testing.T) {
	nw, err := NewRotationSubsetStar(5, 2, []int{2}) // k = 11, only R^2
	if err != nil {
		t.Fatal(err)
	}
	rng := perm.NewRNG(13)
	for trial := 0; trial < 20; trial++ {
		src, dst := perm.Random(11, rng), perm.Random(11, rng)
		moves, err := nw.Route(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if err := nw.VerifyRoute(src, dst, moves); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRecursiveMSConstruction(t *testing.T) {
	// recursive-MS(2;2,1): n = 2, k = 5; generators T2, S_{2,1}, S_{2,2}.
	nw, err := NewRecursiveMS(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if nw.K() != 5 {
		t.Fatalf("k = %d", nw.K())
	}
	if nw.Degree() != 3 { // 1 + 1 + 1
		t.Errorf("degree %d, want 3", nw.Degree())
	}
	if !nw.Graph().Connected() {
		t.Error("recursive MS disconnected")
	}
	// Degree saving vs flat MS(2,2): same size, one fewer generator? MS(2,2)
	// has degree 3 too (n+l-1 = 3); use a bigger case to see the saving.
	big, err := NewRecursiveMS(2, 2, 2) // n = 4, k = 9, degree 2+1+1 = 4
	if err != nil {
		t.Fatal(err)
	}
	flat, err := NewMS(2, 4) // degree 4+1 = 5
	if err != nil {
		t.Fatal(err)
	}
	if big.Degree() >= flat.Degree() {
		t.Errorf("recursive degree %d not below flat %d", big.Degree(), flat.Degree())
	}
	if _, err := NewRecursiveMS(1, 2, 1); err == nil {
		t.Error("l=1 accepted")
	}
	if _, err := NewRecursiveMS(2, 1, 2); err == nil {
		t.Error("l1=1 accepted")
	}
}

func TestRecursiveMSRouting(t *testing.T) {
	nw, err := NewRecursiveMS(2, 2, 2) // k = 9
	if err != nil {
		t.Fatal(err)
	}
	rng := perm.NewRNG(17)
	longest := 0
	for trial := 0; trial < 25; trial++ {
		src, dst := perm.Random(9, rng), perm.Random(9, rng)
		moves, err := nw.Route(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if err := nw.VerifyRoute(src, dst, moves); err != nil {
			t.Fatal(err)
		}
		if len(moves) > longest {
			longest = len(moves)
		}
	}
	dil, err := nw.RecursiveDilation()
	if err != nil {
		t.Fatal(err)
	}
	if dil < 1 {
		t.Fatalf("dilation %d", dil)
	}
	// Expanded routes are bounded by the flat bound times the dilation plus
	// the unexpanded super moves.
	flatBound := nw.DiameterUpperBound()
	if longest > flatBound*dil {
		t.Errorf("recursive route %d exceeds %d x %d", longest, flatBound, dil)
	}
	// Identity routes stay empty.
	moves, err := nw.Route(perm.Identity(9), perm.Identity(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 0 {
		t.Errorf("identity route has %d moves", len(moves))
	}
}

func TestRecursiveDilationRequiresRecursive(t *testing.T) {
	nw, err := NewMS(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.RecursiveDilation(); err == nil {
		t.Error("non-recursive network accepted")
	}
}

// TestRecursiveMSExactDiameter measures the small recursive instance
// exactly and confirms it stays within the expanded-route bound.
func TestRecursiveMSExactDiameter(t *testing.T) {
	nw, err := NewRecursiveMS(2, 2, 1) // k = 5
	if err != nil {
		t.Fatal(err)
	}
	d, err := nw.Graph().Diameter()
	if err != nil {
		t.Fatal(err)
	}
	dil, err := nw.RecursiveDilation()
	if err != nil {
		t.Fatal(err)
	}
	if d > nw.DiameterUpperBound()*dil {
		t.Errorf("diameter %d above expanded bound", d)
	}
	t.Logf("recursive-MS(2;2,1): exact diameter %d, dilation %d", d, dil)
}

// TestSharedNetworksRouteConcurrently shares one network of every family
// at a small k, a rotation-subset network and a recursive MS among several
// goroutines, which start on each network together, each routing with its
// own scratch: a network is read-only once built, so the race detector
// must stay quiet and every goroutine must get the same routes.
func TestSharedNetworksRouteConcurrently(t *testing.T) {
	var nets []*Network
	for _, fam := range AllFamilies() {
		ins, err := EnumerateInstances(fam, 5)
		if err != nil {
			t.Fatal(err)
		}
		in := ins[len(ins)-1]
		nw, err := New(in.Family, in.L, in.N)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, nw)
	}
	sub, err := NewRotationSubsetStar(5, 1, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecursiveMS(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	nets = append(nets, sub, rec)

	const workers, pairs = 4, 8
	for _, nw := range nets {
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs <- routeShared(nw, w, pairs)
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Error(err)
			}
		}
	}
}

// routeShared routes pairs random pairs on nw with Route, VerifyRoute and
// a RouteInto of its own scratch, and holds each route to the bound. Odd
// workers read the bound first and even ones route first, so the two
// orders race each other.
func routeShared(nw *Network, worker, pairs int) error {
	bound := -1
	if worker%2 == 1 {
		bound = nw.DiameterUpperBound()
	}
	sc := NewRouteScratch()
	rng := perm.NewRNG(1)
	for i := 0; i < pairs; i++ {
		src, dst := perm.Random(nw.K(), rng), perm.Random(nw.K(), rng)
		moves, err := nw.Route(src, dst)
		if err != nil {
			return err
		}
		if err := nw.VerifyRoute(src, dst, moves); err != nil {
			return err
		}
		if bound < 0 {
			bound = nw.DiameterUpperBound()
		}
		if len(moves) > bound {
			return fmt.Errorf("%s: route of %d moves above the bound %d", nw.Name(), len(moves), bound)
		}
		into, err := sc.RouteInto(nw, src, dst)
		if err != nil {
			return err
		}
		if !slices.Equal(into, moves) {
			return fmt.Errorf("%s: RouteInto %v, Route %v", nw.Name(), into, moves)
		}
	}
	return nil
}
