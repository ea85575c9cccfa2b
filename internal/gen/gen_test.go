package gen

import (
	"testing"
	"testing/quick"

	"repro/internal/perm"
)

func TestTranspositionAction(t *testing.T) {
	p := perm.MustNew([]int{1, 2, 3, 4, 5, 6, 7})
	NewTransposition(4).Apply(p)
	if !p.Equal(perm.MustNew([]int{4, 2, 3, 1, 5, 6, 7})) {
		t.Fatalf("T4 = %v", p)
	}
	NewTransposition(4).Apply(p)
	if !p.IsIdentity() {
		t.Fatalf("T4 not involutive: %v", p)
	}
}

func TestSwapAction(t *testing.T) {
	// k = 7, n = 2, l = 3: super-symbols at positions (2,3), (4,5), (6,7).
	p := perm.MustNew([]int{1, 2, 3, 4, 5, 6, 7})
	NewSwap(3, 2).Apply(p)
	if !p.Equal(perm.MustNew([]int{1, 6, 7, 4, 5, 2, 3})) {
		t.Fatalf("S3 = %v", p)
	}
	NewSwap(3, 2).Apply(p)
	if !p.IsIdentity() {
		t.Fatalf("S3 not involutive: %v", p)
	}
}

func TestInsertionSelectionAction(t *testing.T) {
	// Definition 3.2: I_i(U) = u_{2:i} u_1 u_{i+1:k}.
	p := perm.MustNew([]int{1, 2, 3, 4, 5, 6, 7})
	NewInsertion(4).Apply(p)
	if !p.Equal(perm.MustNew([]int{2, 3, 4, 1, 5, 6, 7})) {
		t.Fatalf("I4 = %v", p)
	}
	NewSelection(4).Apply(p)
	if !p.IsIdentity() {
		t.Fatalf("I4' did not undo I4: %v", p)
	}
}

func TestRotationAction(t *testing.T) {
	// Definition 3.4 with k = 7, n = 2, l = 3:
	// R^i(u_{1:k}) = u_1 u_{k-in+1:k} u_{2:k-in}.
	p := perm.MustNew([]int{1, 2, 3, 4, 5, 6, 7})
	NewRotation(1, 2).Apply(p)
	if !p.Equal(perm.MustNew([]int{1, 6, 7, 2, 3, 4, 5})) {
		t.Fatalf("R1 = %v", p)
	}
	// R^2 after R^1 is a full cycle of 3 super-symbols: back to identity.
	NewRotation(2, 2).Apply(p)
	if !p.IsIdentity() {
		t.Fatalf("R2∘R1 != id: %v", p)
	}
}

func TestRotationDecomposesIntoR1Powers(t *testing.T) {
	// R^i = R∘R∘...∘R (i times), paper §3.3.
	for _, n := range []int{1, 2, 3} {
		for l := 2; l <= 4; l++ {
			k := n*l + 1
			for i := 0; i < 2*l; i++ {
				direct := NewRotation(i, n).AsPerm(k)
				iter := perm.Identity(k)
				for j := 0; j < i; j++ {
					NewRotation(1, n).Apply(iter)
				}
				if !direct.Equal(iter) {
					t.Fatalf("n=%d l=%d: R^%d != R applied %d times: %v vs %v", n, l, i, i, direct, iter)
				}
			}
		}
	}
}

func TestInverse(t *testing.T) {
	k := 7
	cases := []Generator{
		NewTransposition(3),
		NewSwap(2, 2),
		NewSwap(3, 2),
		NewInsertion(5),
		NewSelection(5),
		NewRotation(1, 2),
		NewRotation(2, 2),
	}
	for _, g := range cases {
		inv := g.Inverse(k)
		p := perm.Random(k, perm.NewRNG(uint64(g.Index())))
		q := g.ApplyTo(p)
		inv.Apply(q)
		if !q.Equal(p) {
			t.Errorf("%s inverse %s does not undo: %v -> %v", g, inv, p, q)
		}
	}
}

func TestSelfInverse(t *testing.T) {
	k := 7
	if !selfInverse(NewTransposition(4), k) {
		t.Error("T4 should be self-inverse")
	}
	if !selfInverse(NewSwap(2, 2), k) {
		t.Error("S2 should be self-inverse")
	}
	if selfInverse(NewInsertion(4), k) {
		t.Error("I4 should not be self-inverse")
	}
	if selfInverse(NewInsertion(2), k) != true {
		// I2 swaps the first two symbols: a transposition.
		t.Error("I2 is the transposition T2 and is self-inverse")
	}
	if selfInverse(NewRotation(1, 2), k) {
		t.Error("R1 with l=3 should not be self-inverse")
	}
}

func TestClassAndNames(t *testing.T) {
	cases := []struct {
		g     Generator
		class Class
		name  string
	}{
		{NewTransposition(2), Nucleus, "T2"},
		{NewInsertion(3), Nucleus, "I3"},
		{NewSelection(3), Nucleus, "I3'"},
		{NewSwap(2, 3), Super, "S2"},
		{NewRotation(2, 3), Super, "R2"},
	}
	for _, c := range cases {
		if c.g.Class() != c.class {
			t.Errorf("%s class = %v, want %v", c.name, c.g.Class(), c.class)
		}
		if c.g.Name() != c.name {
			t.Errorf("Name = %q, want %q", c.g.Name(), c.name)
		}
	}
	if Nucleus.String() != "nucleus" || Super.String() != "super" {
		t.Error("Class.String")
	}
	for _, k := range []Kind{Transposition, Swap, Insertion, Selection, Rotation} {
		if k.String() == "" {
			t.Errorf("Kind %d has empty name", k)
		}
	}
}

func TestAsPermMatchesApply(t *testing.T) {
	k := 9
	rng := perm.NewRNG(3)
	gens := []Generator{
		NewTransposition(5), NewInsertion(7), NewSelection(4),
		NewSwap(2, 4), NewRotation(1, 4),
	}
	for _, g := range gens {
		gp := g.AsPerm(k)
		for trial := 0; trial < 30; trial++ {
			p := perm.Random(k, rng)
			direct := g.ApplyTo(p)
			composed := p.Compose(gp)
			if !direct.Equal(composed) {
				t.Fatalf("%s: Apply=%v Compose=%v", g, direct, composed)
			}
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"T1":      func() { NewTransposition(1) },
		"S1":      func() { NewSwap(1, 2) },
		"S(2,0)":  func() { NewSwap(2, 0) },
		"I1":      func() { NewInsertion(1) },
		"Sel1":    func() { NewSelection(1) },
		"R(1,0)":  func() { NewRotation(1, 0) },
		"applyKs": func() { NewTransposition(9).Apply(perm.Identity(3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestQuickGeneratorInverseProperty(t *testing.T) {
	f := func(seed uint64, pick uint8) bool {
		rng := perm.NewRNG(seed)
		n := 1 + rng.Intn(3)
		l := 2 + rng.Intn(3)
		k := n*l + 1
		var g Generator
		switch pick % 5 {
		case 0:
			g = NewTransposition(2 + rng.Intn(k-1))
		case 1:
			g = NewSwap(2+rng.Intn(l-1), n)
		case 2:
			g = NewInsertion(2 + rng.Intn(k-1))
		case 3:
			g = NewSelection(2 + rng.Intn(k-1))
		default:
			g = NewRotation(1+rng.Intn(l-1), n)
		}
		p := perm.Random(k, rng)
		q := g.ApplyTo(p)
		g.Inverse(k).Apply(q)
		return q.Equal(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// selfInverse reports whether applying g twice returns to the start for
// permutations of k symbols.
func selfInverse(g Generator, k int) bool {
	gp := g.AsPerm(k)
	return gp.Compose(gp).IsIdentity()
}
