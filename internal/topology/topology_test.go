package topology

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/perm"
)

// smallInstances enumerates every super Cayley instance with k <= maxK.
func smallInstances(t *testing.T, maxK int) []*Network {
	t.Helper()
	var nets []*Network
	for l := 2; l <= maxK; l++ {
		for n := 1; n*l+1 <= maxK; n++ {
			for _, fam := range AllSuperCayleyFamilies() {
				nw, err := New(fam, l, n)
				if err != nil {
					t.Fatalf("New(%v,%d,%d): %v", fam, l, n, err)
				}
				nets = append(nets, nw)
			}
		}
	}
	return nets
}

func TestConstructorsReportedParameters(t *testing.T) {
	nw, err := NewMS(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if nw.Family() != MS || nw.L() != 3 || nw.N() != 2 || nw.K() != 7 {
		t.Fatalf("MS(3,2): %v l=%d n=%d k=%d", nw.Family(), nw.L(), nw.N(), nw.K())
	}
	if nw.Nodes() != 5040 {
		t.Fatalf("Nodes = %d", nw.Nodes())
	}
	if nw.Name() != "MS(3,2)" {
		t.Fatalf("Name = %q", nw.Name())
	}
	if _, ok := nw.Rules(); !ok {
		t.Fatal("MS should be game-routed")
	}
	if !MS.IsSuperCayley() || Star.IsSuperCayley() {
		t.Fatal("IsSuperCayley misclassifies")
	}
}

func TestConstructorValidation(t *testing.T) {
	for _, f := range []func() error{
		func() error { _, err := NewStar(1); return err },
		func() error { _, err := NewRotator(1); return err },
		func() error { _, err := NewIS(1); return err },
		func() error { _, err := NewMS(1, 2); return err },
		func() error { _, err := NewMS(2, 0); return err },
		func() error { _, err := New(RR, 1, 3); return err },
		func() error { _, err := New(Family(99), 2, 2); return err },
	} {
		if f() == nil {
			t.Error("invalid constructor call accepted")
		}
	}
}

// TestDegreeMatchesFormula checks Theorem-level degree accounting: the
// constructed graph's degree must equal the closed form for every family and
// parameter choice.
func TestDegreeMatchesFormula(t *testing.T) {
	for _, nw := range smallInstances(t, 9) {
		want, err := DegreeFormula(nw.Family(), nw.L(), nw.N())
		if err != nil {
			t.Fatalf("%s: %v", nw.Name(), err)
		}
		if nw.Degree() != want {
			t.Errorf("%s: degree %d, formula %d", nw.Name(), nw.Degree(), want)
		}
	}
	for k := 2; k <= 8; k++ {
		for _, fam := range []Family{Star, Rotator, Pancake, BubbleSort, TranspositionNet, IS} {
			nw, err := New(fam, 1, k-1)
			if err != nil {
				t.Fatal(err)
			}
			want, err := DegreeFormula(fam, 1, k-1)
			if err != nil {
				t.Fatal(err)
			}
			if nw.Degree() != want {
				t.Errorf("%s: degree %d, formula %d", nw.Name(), nw.Degree(), want)
			}
		}
	}
}

// TestDirectedness checks §3.3's directed/undirected classification.
func TestDirectedness(t *testing.T) {
	undirected := map[Family]bool{
		MS: true, RS: true, CompleteRS: true,
		MIS: true, RIS: true, CompleteRIS: true,
		MR: false, RR: false, CompleteRR: false,
	}
	for _, nw := range smallInstances(t, 9) {
		want, ok := undirected[nw.Family()]
		if !ok {
			continue
		}
		// Degenerate exception: with n = 1 the insertion nucleus {I2} is the
		// self-inverse transposition T2, making MR/RR/complete-RR undirected.
		if nw.N() == 1 {
			continue
		}
		if nw.Undirected() != want {
			t.Errorf("%s: undirected=%v, want %v", nw.Name(), nw.Undirected(), want)
		}
	}
	for _, mk := range []struct {
		fam  Family
		want bool
	}{
		{Star, true}, {Pancake, true}, {BubbleSort, true},
		{TranspositionNet, true}, {IS, true}, {Rotator, false},
	} {
		nw, err := New(mk.fam, 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		if nw.Undirected() != mk.want {
			t.Errorf("%s: undirected=%v, want %v", nw.Name(), nw.Undirected(), mk.want)
		}
	}
}

// TestConnectivity: every instance must generate S_k (strongly connected).
func TestConnectivity(t *testing.T) {
	for _, nw := range smallInstances(t, 8) {
		if !nw.Graph().Connected() {
			t.Errorf("%s is not connected", nw.Name())
		}
	}
}

// TestExactDiameterWithinBounds computes exact BFS diameters for every
// super Cayley instance with k <= 10 (126 instances; k <= 8 under -race,
// k <= 7 under -short) and checks them against the solver-derived upper
// bounds and, where the paper states a formula, the paper's bound.
func TestExactDiameterWithinBounds(t *testing.T) {
	maxK := 10
	switch {
	case testing.Short():
		maxK = 7
	case raceEnabled:
		maxK = 8
	}
	for _, nw := range smallInstances(t, maxK) {
		d, err := nw.Graph().Diameter()
		if err != nil {
			t.Fatalf("%s: %v", nw.Name(), err)
		}
		ub := nw.DiameterUpperBound()
		if d > ub {
			t.Errorf("%s: exact diameter %d exceeds bound %d", nw.Name(), d, ub)
		}
		if paper, ok := PaperDiameterBound(nw.Family(), nw.L(), nw.N()); ok && d > paper {
			t.Errorf("%s: exact diameter %d exceeds the paper bound %d", nw.Name(), d, paper)
		}
		t.Logf("%s: exact diameter %d (our bound %d)", nw.Name(), d, ub)
	}
}

// TestMSWithN1IsStar: "For n = 1, the macro-star MS(l,1), macro-rotator
// RS(l,1), and macro-IS MIS(l,1) are all identical to an (l+1)-star graph"
// (§3.3.3). We verify the metric claim: same size, degree, and exact
// diameter.
func TestMSWithN1IsStar(t *testing.T) {
	for l := 2; l <= 6; l++ {
		star, err := NewStar(l + 1)
		if err != nil {
			t.Fatal(err)
		}
		wantD, err := star.Graph().Diameter()
		if err != nil {
			t.Fatal(err)
		}
		for _, fam := range []Family{MS, MR, MIS} {
			nw, err := New(fam, l, 1)
			if err != nil {
				t.Fatal(err)
			}
			if nw.Nodes() != star.Nodes() || nw.Degree() != star.Degree() {
				t.Errorf("%s: size/degree (%d,%d) vs star (%d,%d)",
					nw.Name(), nw.Nodes(), nw.Degree(), star.Nodes(), star.Degree())
			}
			d, err := nw.Graph().Diameter()
			if err != nil {
				t.Fatal(err)
			}
			if d != wantD {
				t.Errorf("%s: diameter %d, star(%d) has %d", nw.Name(), d, l+1, wantD)
			}
		}
	}
}

// TestRoutingRandomPairs validates Route on random source/destination pairs
// for every family, including the non-game baselines.
func TestRoutingRandomPairs(t *testing.T) {
	rng := perm.NewRNG(31)
	var nets []*Network
	nets = append(nets, smallInstances(t, 9)...)
	for _, fam := range []Family{Star, Rotator, Pancake, BubbleSort, TranspositionNet, IS} {
		nw, err := New(fam, 1, 6)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, nw)
	}
	for _, nw := range nets {
		k := nw.K()
		for trial := 0; trial < 8; trial++ {
			src, dst := perm.Random(k, rng), perm.Random(k, rng)
			moves, err := nw.Route(src, dst)
			if err != nil {
				t.Fatalf("%s: Route: %v", nw.Name(), err)
			}
			if err := nw.VerifyRoute(src, dst, moves); err != nil {
				t.Fatalf("%s: %v", nw.Name(), err)
			}
			if len(moves) > nw.DiameterUpperBound() {
				t.Errorf("%s: route length %d > bound %d", nw.Name(), len(moves), nw.DiameterUpperBound())
			}
		}
	}
}

// TestRouteNeverBeatsBFS: the algorithmic route can never be shorter than
// the true shortest path, and for every pair its length stays within the
// diameter bound. Exact distances come from one BFS per source.
func TestRouteNeverBeatsBFS(t *testing.T) {
	rng := perm.NewRNG(37)
	for _, fam := range AllSuperCayleyFamilies() {
		nw, err := New(fam, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		k := nw.K()
		for trial := 0; trial < 5; trial++ {
			src := perm.Random(k, rng)
			fromSrc, err := nw.Graph().BFS(src)
			if err != nil {
				t.Fatal(err)
			}
			for inner := 0; inner < 10; inner++ {
				dst := perm.Random(k, rng)
				moves, err := nw.Route(src, dst)
				if err != nil {
					t.Fatal(err)
				}
				exact := int(fromSrc.Dist.At(dst.Rank()))
				if exact < 0 {
					t.Fatalf("%s: %v unreachable from %v", nw.Name(), dst, src)
				}
				if len(moves) < exact {
					t.Errorf("%s: route %v->%v has %d moves, below exact distance %d",
						nw.Name(), src, dst, len(moves), exact)
				}
			}
		}
	}
}

func TestVerifyRouteRejectsForeignMoves(t *testing.T) {
	ms, err := NewMS(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := New(RR, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := perm.NewRNG(5)
	src, dst := perm.Random(7, rng), perm.Random(7, rng)
	moves, err := rr.Route(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	usesInsertion := false
	for _, g := range moves {
		if g.Name() != "T2" && g.Name() != "I2" {
			usesInsertion = true
		}
	}
	if usesInsertion {
		if err := ms.VerifyRoute(src, dst, moves); err == nil {
			t.Error("MS accepted RR moves")
		}
	}
	if err := ms.VerifyRoute(src, dst, nil); err == nil {
		t.Error("empty route accepted for distinct src/dst")
	}
}

func TestFamilyStrings(t *testing.T) {
	fams := append(AllSuperCayleyFamilies(), Star, Rotator, Pancake, BubbleSort, TranspositionNet, IS)
	for _, f := range fams {
		if f.String() == "" {
			t.Errorf("family %d has empty name", f)
		}
	}
}

func TestParseFamilyRoundTrip(t *testing.T) {
	fams := AllFamilies()
	if len(fams) != 15 {
		t.Fatalf("AllFamilies lists %d families, want 15", len(fams))
	}
	for _, f := range fams {
		got, err := ParseFamily(f.String())
		if err != nil {
			t.Errorf("ParseFamily(%q): %v", f.String(), err)
			continue
		}
		if got != f {
			t.Errorf("ParseFamily(%q) = %v, want %v", f.String(), got, f)
		}
	}
	if _, err := ParseFamily("nope"); err == nil {
		t.Error("ParseFamily accepts an unknown name")
	}
	if _, err := ParseFamily(""); err == nil {
		t.Error("ParseFamily accepts an empty name")
	}
}

// familyFingerprint returns the SHA-256 of one line per instance of fam:
// every valid (l, n) with k <= 13 (for a nucleus-only family, l = 1 and
// n = 1..12, plus one request with l = 3, which New ignores). A line holds
// the instance's name, family, parameters, generator names in order,
// degree, intercluster degree, directedness, both route bounds, the
// paper's bound, the node count (n·l+1)! or (n+1)! and the ParseFamily
// round trip.
func familyFingerprint(t *testing.T, fam Family) string {
	t.Helper()
	type ln struct{ l, n int }
	var params []ln
	if fam.IsSuperCayley() {
		for l := 2; l <= 12; l++ {
			for n := 1; n*l+1 <= 13; n++ {
				params = append(params, ln{l, n})
			}
		}
	} else {
		for n := 1; n <= 12; n++ {
			params = append(params, ln{1, n})
		}
		params = append(params, ln{3, 4})
	}
	h := sha256.New()
	for _, p := range params {
		nw, err := New(fam, p.l, p.n)
		if err != nil {
			t.Fatalf("New(%v,%d,%d): %v", fam, p.l, p.n, err)
		}
		set := nw.Graph().GeneratorSet()
		names := make([]string, set.Len())
		for j := range names {
			names[j] = set.At(j).Name()
		}
		formula, err := DiameterUpperBoundFormula(fam, p.l, p.n)
		if err != nil {
			t.Fatalf("DiameterUpperBoundFormula(%v,%d,%d): %v", fam, p.l, p.n, err)
		}
		paper, printed := PaperDiameterBound(fam, p.l, p.n)
		parsed, err := ParseFamily(fam.String())
		fmt.Fprintf(h, "%s %v l=%d n=%d k=%d gens=%s degree=%d super=%d undirected=%v bound=%d formula=%d paper=%d,%v nodes=%d parse=%v,%v\n",
			nw.Name(), nw.Family(), nw.L(), nw.N(), nw.K(), strings.Join(names, ","),
			nw.Degree(), nw.InterclusterDegree(), nw.Undirected(), nw.DiameterUpperBound(),
			formula, paper, printed, perm.Factorial(Instance{Family: fam, L: p.l, N: p.n}.K()), parsed, err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestFamiliesPinned holds what New builds for every family to SHA-256
// pins of familyFingerprint, recorded from the per-family constructors
// that New's table replaced; it also pins New's answer to an unknown
// family.
func TestFamiliesPinned(t *testing.T) {
	pins := map[Family]string{
		Star:             "9d1948624e3d2a626ccb9de388f2ee3cb04977b9ad32066876cb1f94a03108b2",
		Rotator:          "d188f1a67052c1aef4f41c9e20c3d332ad6b41e53d5f1342996bf50d76c5f0a3",
		Pancake:          "f55fb3f8c9fc2c48d811d1af9db6083c3b043c64584571907aceea52431a7fc4",
		BubbleSort:       "b872edfd5b3dcacf03bb880010112209f8ba145e49968ea52c7abfa8bd5a85aa",
		TranspositionNet: "e1c84871cbdaf21629d346e90121be83631a637daafe8bcf3befb5eea72f1355",
		IS:               "8dc383798923a6af4e2c5102045d1eb35ab6308df8ca4909c510feafa0aaf34e",
		MS:               "e7e6f78aa03039aa32e5787dbd5d591cb1417a087bd8f19a867d1b839c5ef08e",
		RS:               "45a1bf96b02280b8159f9df056713c929ceca0afa604c8114ea70a5e3b3cb875",
		CompleteRS:       "6f29df15a3c345590cfe2e8e78c9559a23728d2702dac4b2d4056e3db566cba1",
		MR:               "2408035d91fb39c553bb078ca0ecd6c073a67f68abccdf393fecf6ffb3cdaeb6",
		RR:               "76784c7152e90bb73c05025621a7fa897597bfc08694a58a07c8aedaa7b2b2f6",
		CompleteRR:       "9951685917ced4f6b8c27040310f3fec180314422f6a81506b1e087603a34086",
		MIS:              "b52d33a2b4d06afe984a3035a7e961507ff1726767702e7af8668352e225dcc5",
		RIS:              "ec61fea2bbd7a1d6f52d370412cbf51ccb53cfc73d0b85672beced17e55983e6",
		CompleteRIS:      "f5b81b15192d22472d42617188d5b4f78ab4abccdfa6d14161b9cadbd0126d3f",
	}
	for _, fam := range AllFamilies() {
		if got := familyFingerprint(t, fam); got != pins[fam] {
			t.Errorf("%v: fingerprint %s, pinned %s", fam, got, pins[fam])
		}
	}
	for _, fam := range []Family{Family(-1), Family(99)} {
		want := fmt.Sprintf("topology: New: unknown family Family(%d)", int(fam))
		if _, err := New(fam, 2, 2); err == nil || err.Error() != want {
			t.Errorf("New(%d, 2, 2): error %v, want %q", int(fam), err, want)
		}
	}
}
