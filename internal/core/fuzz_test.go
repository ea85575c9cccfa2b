package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/perm"
)

// fuzzGenUniverse lists every generator constructible at dimension k that
// the fuzzer may pick: transpositions, position swaps, and prefix reversals
// (all self-inverse), insertion/selection rotations (mutual inverses), and
// the super generators of every super-symbol length n dividing k−1 —
// swaps S_{i,n} and rotations R^i — whose moved range starts at position
// 2, so that every column shape of the super Cayley families is drawn.
func fuzzGenUniverse(k int) []gen.Generator {
	var universe []gen.Generator
	for i := 2; i <= k; i++ {
		universe = append(universe,
			gen.NewTransposition(i),
			gen.NewPrefixReversal(i),
			gen.NewInsertion(i),
			gen.NewSelection(i),
		)
	}
	for i := 1; i < k; i++ {
		for j := i + 1; j <= k; j++ {
			universe = append(universe, gen.NewPositionSwap(i, j))
		}
	}
	for n := 1; n < k; n++ {
		if (k-1)%n != 0 {
			continue
		}
		l := (k - 1) / n
		for i := 2; i <= l; i++ {
			universe = append(universe, gen.NewSwap(i, n))
		}
		for i := 1; i < l; i++ {
			universe = append(universe, gen.NewRotation(i, n))
		}
	}
	return universe
}

// FuzzParallelBFS drives the BFS engine over Cayley graphs of random
// inverse-closed generator sets at k <= 7, from a random source and on one
// to four workers, and requires a result reflect.DeepEqual to the oracle's.
// It then draws a 0/1 weight per generator of the set and requires the
// engine's 0/1 search on the same workers to match the deque oracle, and
// cuts one to eight random (rank, generator) links and requires
// BFSWithout on the same workers to match the queue oracle skipping the
// same links. Sets that do not generate S_k are kept: equivalence must
// hold on disconnected state spaces too.
func FuzzParallelBFS(f *testing.F) {
	f.Add(uint8(4), uint64(1), uint8(2))
	f.Add(uint8(6), uint64(42), uint8(3))
	f.Add(uint8(7), uint64(7), uint8(5))
	f.Fuzz(func(t *testing.T, rawK uint8, seed uint64, rawCount uint8) {
		k := 2 + int(rawK)%6 // 2..7
		universe := fuzzGenUniverse(k)
		rng := perm.NewRNG(seed)
		count := 1 + int(rawCount)%4

		// Pick generators, then close the set under inversion so the graph
		// is undirected in the paper's sense.
		var picked []gen.Generator
		seen := map[string]bool{}
		add := func(g gen.Generator) {
			key := g.AsPerm(k).String()
			if key == perm.Identity(k).String() || seen[key] {
				return
			}
			seen[key] = true
			picked = append(picked, g)
		}
		for i := 0; i < count; i++ {
			g := universe[rng.Intn(len(universe))]
			add(g)
			add(g.Inverse(k))
		}
		if len(picked) == 0 {
			t.Skip("all picks degenerate")
		}
		set, err := gen.NewSet(k, picked...)
		if err != nil {
			t.Fatalf("NewSet(k=%d, %v): %v", k, picked, err)
		}
		if !set.IsInverseClosed() {
			t.Fatalf("set %v not inverse-closed after closure", set)
		}
		g := NewGraph("fuzz", set)

		src := perm.Random(k, rng)
		want := oracleBFS(g, src, nil)
		workers := 1 + int(seed%4)
		got, err := g.BFSParallel(src, workers)
		if err != nil {
			t.Fatalf("BFS (workers=%d): %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("BFS (workers=%d) on %s from %v differs from the oracle:\ngot    ecc=%d hist=%v mean=%v\noracle ecc=%d hist=%v mean=%v",
				workers, g, src, got.Eccentricity, got.Histogram, got.Mean, want.Eccentricity, want.Histogram, want.Mean)
		}

		weight := make([]int, set.Len())
		for i := range weight {
			weight[i] = rng.Intn(2)
		}
		tbl, err := g.EnsureNeighborTable(workers)
		if err != nil {
			t.Fatal(err)
		}
		gotW, err := g.bfsWeighted(src, weight, workers)
		if err != nil {
			t.Fatalf("BFSWeighted (workers=%d): %v", workers, err)
		}
		sameWeighted(t, fmt.Sprintf("BFSWeighted (workers=%d, weights %v) on %s from %v", workers, weight, g, src),
			gotW, oracleWeighted(tbl, src.Rank(), weight))

		n := g.Order()
		cut := make([][]uint64, set.Len())
		var links [][2]int64
		for i := 1 + rng.Intn(8); i > 0; i-- {
			r, j := int64(rng.Intn(int(n))), rng.Intn(set.Len())
			if cut[j] == nil {
				cut[j] = make([]uint64, (n+63)/64)
			}
			cut[j][r>>6] |= 1 << (r & 63)
			links = append(links, [2]int64{r, int64(j)})
		}
		gotC, err := g.bfsWithout(src, cut, workers)
		if err != nil {
			t.Fatalf("BFSWithout (workers=%d): %v", workers, err)
		}
		if wantC := oracleBFS(g, src, cut); !reflect.DeepEqual(gotC, wantC) {
			t.Fatalf("BFSWithout (workers=%d, cut %v) on %s from %v differs from the oracle:\ngot    reach=%d ecc=%d hist=%v\noracle reach=%d ecc=%d hist=%v",
				workers, links, g, src, gotC.Reachable, gotC.Eccentricity, gotC.Histogram, wantC.Reachable, wantC.Eccentricity, wantC.Histogram)
		}
	})
}
