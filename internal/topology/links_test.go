package topology

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/perm"
)

// linkTableNetworks is every family at k <= 10, plus star(13) and
// transposition(11).
func linkTableNetworks(t testing.TB) []*Network {
	t.Helper()
	var nets []*Network
	for _, fam := range AllFamilies() {
		ins, err := EnumerateInstances(fam, 10)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range ins {
			nw, err := New(in.Family, in.L, in.N)
			if err != nil {
				t.Fatalf("%v: %v", in, err)
			}
			nets = append(nets, nw)
		}
	}
	star13, err := NewStar(13)
	if err != nil {
		t.Fatal(err)
	}
	tn11, err := New(TranspositionNet, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	return append(nets, star13, tn11)
}

// linkProbes lists generators that act on nw's k symbols around its links:
// every nucleus kind at every index up to k, Swaps and Rotations at block
// lengths n-1..n+1 and levels and exponents from -1 to l+1 (so rotation
// exponents >= l), and every PositionSwap.
func linkProbes(nw *Network) []gen.Generator {
	k, l, n := nw.K(), nw.L(), nw.N()
	var probes []gen.Generator
	for i := 2; i <= k; i++ {
		probes = append(probes, gen.NewTransposition(i), gen.NewInsertion(i),
			gen.NewSelection(i), gen.NewPrefixReversal(i))
	}
	for i := 1; i < k; i++ {
		for j := i + 1; j <= k; j++ {
			probes = append(probes, gen.NewPositionSwap(i, j))
		}
	}
	for m := n - 1; m <= n+1; m++ {
		if m < 1 {
			continue
		}
		for i := 2; i*m+1 <= k; i++ {
			probes = append(probes, gen.NewSwap(i, m))
		}
		if (k-1)%m != 0 || k < m+2 {
			continue
		}
		for e := -1; e <= l+1; e++ {
			probes = append(probes, gen.NewRotation(e, m))
		}
	}
	return probes
}

// TestLinkTableMatchesMaps holds the dense link table to the generator-keyed
// maps it replaced, rebuilt here as the oracle: every link verifies, finds
// its own link number and names itself, through MoveName and through the
// name VerifyRouteInto keeps; every other generator that acts on k symbols
// gets the verdict and the name the maps gave (admitted only when its
// action is a link's, named by its own notation).
func TestLinkTableMatchesMaps(t *testing.T) {
	rng := perm.NewRNG(43)
	var sc RouteScratch
	var links, actionEqual, foreign, otherBlockLen, highExponent int
	for _, nw := range linkTableNetworks(t) {
		k := nw.K()
		set := nw.Graph().GeneratorSet()
		allowed := make(map[gen.Generator]int, set.Len())
		allowedPerm := make(map[string]bool, set.Len())
		for j := 0; j < set.Len(); j++ {
			allowed[set.At(j)] = j
			allowedPerm[set.At(j).AsPerm(k).String()] = true
		}
		src := perm.Random(k, rng)
		for j := 0; j < set.Len(); j++ {
			g := set.At(j)
			if got, ok := nw.links.find(g); !ok || got != j {
				t.Fatalf("%s: link %d (%s) found as %d, %v", nw.Name(), j, g, got, ok)
			}
			if got := nw.MoveName(g); got != g.Name() {
				t.Fatalf("%s: link %s named %q", nw.Name(), g, got)
			}
			if err := sc.VerifyRouteInto(nw, src, g.ApplyTo(src), []gen.Generator{g}); err != nil {
				t.Fatalf("%s: link %s: %v", nw.Name(), g, err)
			}
			if got := sc.VerifiedNames(); len(got) != 1 || got[0] != g.Name() {
				t.Fatalf("%s: link %s verified as %q", nw.Name(), g, got)
			}
			links++
		}
		for _, g := range linkProbes(nw) {
			j, isLink := allowed[g]
			want := isLink || allowedPerm[g.AsPerm(k).String()]
			err := sc.VerifyRouteInto(nw, src, g.ApplyTo(src), []gen.Generator{g})
			if (err == nil) != want {
				t.Fatalf("%s: %s verifies %v (err %v), maps say %v", nw.Name(), g, err == nil, err, want)
			}
			if got := sc.VerifiedNames(); want && (len(got) != 1 || got[0] != g.Name()) || !want && len(got) != 0 {
				t.Fatalf("%s: %s verified as %q (err %v)", nw.Name(), g, got, err)
			}
			// After a link, and after a walk that ends elsewhere, a refusal
			// leaves no names either.
			first := set.At(0)
			err = sc.VerifyRouteInto(nw, src, g.ApplyTo(first.ApplyTo(src)), []gen.Generator{first, g})
			if got := sc.VerifiedNames(); (err == nil) != want || !want && len(got) != 0 {
				t.Fatalf("%s: %s after %s verifies %v (err %v) as %q", nw.Name(), g, first, err == nil, err, got)
			}
			if err := sc.VerifyRouteInto(nw, src, src, []gen.Generator{first}); err == nil || len(sc.VerifiedNames()) != 0 {
				t.Fatalf("%s: a walk away from dst verified (err %v) as %q", nw.Name(), err, sc.VerifiedNames())
			}
			got, ok := nw.links.find(g)
			if ok != isLink || (isLink && got != j) {
				t.Fatalf("%s: %s found as (%d, %v), maps say (%d, %v)", nw.Name(), g, got, ok, j, isLink)
			}
			if name := nw.MoveName(g); name != g.Name() {
				t.Fatalf("%s: %s named %q", nw.Name(), g, name)
			}
			switch {
			case isLink:
			case want:
				actionEqual++
			default:
				foreign++
			}
			if !isLink && (g.Kind() == gen.Swap || g.Kind() == gen.Rotation) && g.BlockLen() != nw.N() {
				otherBlockLen++
			}
			if g.Kind() == gen.Rotation && g.Index() >= nw.L() && nw.L() > 1 {
				highExponent++
			}
		}
	}
	t.Logf("%d links; probes: %d action-equal, %d foreign, %d at another block length, %d rotations with exponent >= l",
		links, actionEqual, foreign, otherBlockLen, highExponent)
	if actionEqual == 0 || foreign == 0 || otherBlockLen == 0 || highExponent == 0 {
		t.Fatal("a probe class is empty")
	}
}

// TestLinkTableSpansTransposition64: link numbers pass a byte.
func TestLinkTableSpansTransposition64(t *testing.T) {
	nw, err := New(TranspositionNet, 1, 63)
	if err != nil {
		t.Fatal(err)
	}
	set := nw.Graph().GeneratorSet()
	if set.Len() != 2016 {
		t.Fatalf("transposition(64) has %d links, want 2016", set.Len())
	}
	for j := 0; j < set.Len(); j++ {
		if got, ok := nw.links.find(set.At(j)); !ok || got != j {
			t.Fatalf("link %d (%s) found as %d, %v", j, set.At(j), got, ok)
		}
	}
}

// k7Networks is every instance New builds with k = 7: query-mix's 33
// networks.
func k7Networks(tb testing.TB) []*Network {
	tb.Helper()
	var nets []*Network
	for _, fam := range AllFamilies() {
		ins, err := EnumerateInstances(fam, 7)
		if err != nil {
			tb.Fatal(err)
		}
		for _, in := range ins {
			if in.K() != 7 {
				continue
			}
			nw, err := New(in.Family, in.L, in.N)
			if err != nil {
				tb.Fatal(err)
			}
			nets = append(nets, nw)
		}
	}
	if len(nets) != 33 {
		tb.Fatalf("%d instances with k = 7, want 33", len(nets))
	}
	return nets
}

// TestRouteIntoDoesNotAllocate holds RouteScratch to its claim for every
// family New builds: once a scratch has routed a set of pairs, routing and
// verifying them again allocates nothing. Each of the 33 k = 7 instances
// routes and verifies 64 random pairs once to warm its scratch (the
// warm-up run of testing.AllocsPerRun), then once more under it
// (GOMAXPROCS 1), which must count 0 mallocs in total.
func TestRouteIntoDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates in instrumented code")
	}
	rng := perm.NewRNG(11)
	for _, nw := range k7Networks(t) {
		const pairs = 64
		src, dst := make([]perm.Perm, pairs), make([]perm.Perm, pairs)
		for i := range src {
			src[i], dst[i] = perm.Random(nw.K(), rng), perm.Random(nw.K(), rng)
		}
		var sc RouteScratch
		var routeErr error
		route := func() {
			for i := range src {
				moves, err := sc.RouteInto(nw, src[i], dst[i])
				if err == nil {
					err = sc.VerifyRouteInto(nw, src[i], dst[i], moves)
				}
				if err != nil && routeErr == nil {
					routeErr = err
				}
			}
		}
		allocs := testing.AllocsPerRun(1, route)
		if routeErr != nil {
			t.Fatalf("%s: %v", nw.Name(), routeErr)
		}
		if allocs != 0 {
			t.Errorf("%s: %d warm routes with verify allocate %.0f times, want 0", nw.Name(), pairs, allocs)
		}
	}
}

// BenchmarkRouteVerifyMix times the warm route path below the server: route,
// verify and name every move, with one scratch, as the route handler does
// (the names are the ones VerifyRouteInto kept). "mix-k7" cycles the 33
// instances with k = 7 (the query-mix set), "k7/<network>" times each of
// them alone, and "MS(2,4)" is route-hot's instance. Pairs are drawn once,
// outside the timer.
func BenchmarkRouteVerifyMix(b *testing.B) {
	mix := k7Networks(b)
	ms24, err := NewMS(2, 4)
	if err != nil {
		b.Fatal(err)
	}
	type benchCase struct {
		name string
		nets []*Network
	}
	cases := []benchCase{{"mix-k7", mix}}
	for _, nw := range mix {
		cases = append(cases, benchCase{"k7/" + nw.Name(), []*Network{nw}})
	}
	for _, bc := range append(cases, benchCase{"MS(2,4)", []*Network{ms24}}) {
		b.Run(bc.name, func(b *testing.B) {
			const pairs = 1024
			rng := perm.NewRNG(47)
			src, dst := make([]perm.Perm, pairs), make([]perm.Perm, pairs)
			for i := range src {
				k := bc.nets[i%len(bc.nets)].K()
				src[i], dst[i] = perm.Random(k, rng), perm.Random(k, rng)
			}
			var sc RouteScratch
			names := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := i % pairs
				nw := bc.nets[p%len(bc.nets)]
				moves, err := sc.RouteInto(nw, src[p], dst[p])
				if err != nil {
					b.Fatal(err)
				}
				if err := sc.VerifyRouteInto(nw, src[p], dst[p], moves); err != nil {
					b.Fatal(err)
				}
				for _, name := range sc.VerifiedNames() {
					names += len(name)
				}
			}
			if names == 0 {
				b.Fatal("no moves named")
			}
		})
	}
}
