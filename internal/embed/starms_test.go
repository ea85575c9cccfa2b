package embed

import (
	"fmt"
	"testing"

	"repro/internal/bag"
	"repro/internal/gen"
	"repro/internal/perm"
	"repro/internal/topology"
)

func TestStarToMSFactorization(t *testing.T) {
	rng := perm.NewRNG(5)
	for _, ln := range []struct{ l, n int }{{2, 2}, {3, 2}, {2, 3}, {4, 2}} {
		ly := bag.MustLayout(ln.l, ln.n)
		k := ly.K()
		for i := 2; i <= k; i++ {
			path, err := StarToMS(ly, i)
			if err != nil {
				t.Fatal(err)
			}
			wantLen := 1
			if ly.SlotOfPosition(i) != 1 {
				wantLen = 3
			}
			if len(path) != wantLen {
				t.Fatalf("(%d,%d) T%d: path length %d, want %d", ln.l, ln.n, i, len(path), wantLen)
			}
			for trial := 0; trial < 10; trial++ {
				u := perm.Random(k, rng)
				want := gen.NewTransposition(i).ApplyTo(u)
				got := u.Clone()
				for _, g := range path {
					g.Apply(got)
				}
				if !got.Equal(want) {
					t.Fatalf("(%d,%d) T%d: ends at %v, want %v", ln.l, ln.n, i, got, want)
				}
			}
		}
	}
	if _, err := StarToMS(bag.MustLayout(2, 2), 1); err == nil {
		t.Error("dimension 1 accepted")
	}
	if _, err := StarToMS(bag.MustLayout(2, 2), 9); err == nil {
		t.Error("dimension beyond k accepted")
	}
}

func TestMeasureStarIntoMS(t *testing.T) {
	ly := bag.MustLayout(3, 2)
	rep, err := MeasureStarIntoMS(ly, 0) // exhaustive at k = 7
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dilation != 3 {
		t.Errorf("dilation %d, want 3", rep.Dilation)
	}
	if rep.Congestion < 2 {
		t.Errorf("congestion %d suspiciously low (swap links are shared)", rep.Congestion)
	}
	if rep.Congestion > 2*ly.N+1 {
		t.Errorf("congestion %d above the O(n) expectation", rep.Congestion)
	}
	if rep.AvgPathLen <= 1 || rep.AvgPathLen >= 3 {
		t.Errorf("avg path %f outside (1,3)", rep.AvgPathLen)
	}
	t.Logf("star(7) -> MS(3,2): dilation %d congestion %d avg %.3f",
		rep.Dilation, rep.Congestion, rep.AvgPathLen)
}

func TestEmulateStarOnMS(t *testing.T) {
	ly := bag.MustLayout(3, 2)
	ms, err := topology.NewMS(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := perm.NewRNG(11)
	for trial := 0; trial < 30; trial++ {
		src, dst := perm.Random(7, rng), perm.Random(7, rng)
		u := dst.Inverse().Compose(src)
		starMoves, err := bag.SolveStar(u)
		if err != nil {
			t.Fatal(err)
		}
		msMoves, err := EmulateStarOnMS(ly, starMoves)
		if err != nil {
			t.Fatal(err)
		}
		if len(msMoves) > 3*len(starMoves) {
			t.Fatalf("slowdown %d/%d above 3", len(msMoves), len(starMoves))
		}
		if err := ms.VerifyRoute(src, dst, msMoves); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := EmulateStarOnMS(ly, []gen.Generator{gen.NewInsertion(3)}); err == nil {
		t.Error("non-star move accepted")
	}
}

func TestBubbleToStarFactorization(t *testing.T) {
	rng := perm.NewRNG(13)
	for k := 3; k <= 8; k++ {
		for i := 1; i < k; i++ {
			path, err := BubbleToStar(i)
			if err != nil {
				t.Fatal(err)
			}
			wantLen := 3
			if i == 1 {
				wantLen = 1
			}
			if len(path) != wantLen {
				t.Fatalf("P(%d,%d): path length %d, want %d", i, i+1, len(path), wantLen)
			}
			for trial := 0; trial < 10; trial++ {
				u := perm.Random(k, rng)
				want := gen.NewPositionSwap(i, i+1).ApplyTo(u)
				got := u.Clone()
				for _, g := range path {
					g.Apply(got)
				}
				if !got.Equal(want) {
					t.Fatalf("k=%d P(%d,%d): %v vs %v", k, i, i+1, got, want)
				}
			}
		}
	}
	if _, err := BubbleToStar(0); err == nil {
		t.Error("position 0 accepted")
	}
}

func TestEmulateBubbleOnStar(t *testing.T) {
	star, err := topology.NewStar(6)
	if err != nil {
		t.Fatal(err)
	}
	bub, err := topology.New(topology.BubbleSort, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := perm.NewRNG(17)
	for trial := 0; trial < 20; trial++ {
		src, dst := perm.Random(6, rng), perm.Random(6, rng)
		bubMoves, err := bub.Route(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		starMoves, err := EmulateBubbleOnStar(bubMoves)
		if err != nil {
			t.Fatal(err)
		}
		if len(starMoves) > 3*len(bubMoves) {
			t.Fatalf("slowdown %d/%d above 3", len(starMoves), len(bubMoves))
		}
		if err := star.VerifyRoute(src, dst, starMoves); err != nil {
			t.Fatal(err)
		}
	}
	// Chained: bubble -> star -> IS with slowdown <= 6.
	isNet, err := topology.NewIS(6)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := perm.Random(6, rng), perm.Random(6, rng)
	bubMoves, err := bub.Route(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	starMoves, err := EmulateBubbleOnStar(bubMoves)
	if err != nil {
		t.Fatal(err)
	}
	isMoves, err := EmulateStarOnIS(starMoves)
	if err != nil {
		t.Fatal(err)
	}
	if len(bubMoves) > 0 && len(isMoves) > 6*len(bubMoves) {
		t.Fatalf("chained slowdown %d/%d above 6", len(isMoves), len(bubMoves))
	}
	if err := isNet.VerifyRoute(src, dst, isMoves); err != nil {
		t.Fatal(err)
	}
	// Non-adjacent swaps rejected.
	if _, err := EmulateBubbleOnStar([]gen.Generator{gen.NewPositionSwap(2, 5)}); err == nil {
		t.Error("non-adjacent swap accepted")
	}
}

// MeasureStarIntoMS verifies the star(k) -> MS(l,n) emulation on every
// dimension from sampled nodes and reports dilation and (sampled)
// congestion.
func MeasureStarIntoMS(ly bag.Layout, samples int) (*EmbeddingReport, error) {
	k := ly.K()
	nodes, err := sampleNodes(k, samples)
	if err != nil {
		return nil, err
	}
	usage := make(map[string]int)
	rep := &EmbeddingReport{}
	var totalLen, edges int
	for _, u := range nodes {
		for i := 2; i <= k; i++ {
			want := gen.NewTransposition(i).ApplyTo(u)
			path, err := StarToMS(ly, i)
			if err != nil {
				return nil, err
			}
			cur := u.Clone()
			for _, g := range path {
				usage[fmt.Sprintf("%d:%s", cur.Rank(), g.Name())]++
				g.Apply(cur)
			}
			if !cur.Equal(want) {
				return nil, fmt.Errorf("embed: StarToMS edge (%v, T%d) ends at %v, want %v", u, i, cur, want)
			}
			if len(path) > rep.Dilation {
				rep.Dilation = len(path)
			}
			totalLen += len(path)
			edges++
		}
	}
	for _, c := range usage {
		if c > rep.Congestion {
			rep.Congestion = c
		}
	}
	rep.AvgPathLen = float64(totalLen) / float64(edges)
	return rep, nil
}

// EmulateBubbleOnStar converts a bubble-sort-graph route (adjacent position
// swaps) to a star-graph route with slowdown at most 3.
func EmulateBubbleOnStar(moves []gen.Generator) ([]gen.Generator, error) {
	var out []gen.Generator
	for _, m := range moves {
		if m.Kind() != gen.PositionSwap || m.SecondIndex() != m.Index()+1 {
			return nil, fmt.Errorf("embed: EmulateBubbleOnStar: move %s is not an adjacent transposition", m.Name())
		}
		path, err := BubbleToStar(m.Index())
		if err != nil {
			return nil, err
		}
		out = append(out, path...)
	}
	return out, nil
}

// BubbleToStar maps a bubble-sort-graph generator (the adjacent
// transposition of positions i and i+1) onto a star-graph path: P(1,2) is
// T_2 itself, and for i >= 2 the conjugation P(i,i+1) = T_i ∘ T_{i+1} ∘ T_i.
// Dilation 3. Composed with StarToIS/StarToMS this realizes the paper's
// remark that bubble-sort graphs embed in super Cayley graphs with constant
// dilation.
func BubbleToStar(i int) ([]gen.Generator, error) {
	if i < 1 {
		return nil, fmt.Errorf("embed: BubbleToStar: position %d out of range", i)
	}
	if i == 1 {
		return []gen.Generator{gen.NewTransposition(2)}, nil
	}
	ti := gen.NewTransposition(i)
	return []gen.Generator{ti, gen.NewTransposition(i + 1), ti}, nil
}
