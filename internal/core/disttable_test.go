package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/perm"
)

// cycleGraph returns the Cayley graph of the single insertion generator
// I_k: the reachable component from any node is a directed cycle of k
// states, so eccentricity = k-1 — a cheap way to manufacture distances
// past an artificially lowered u8DistLimit.
func cycleGraph(t testing.TB, k int) *Graph {
	t.Helper()
	set, err := gen.NewSet(k, gen.NewInsertion(k))
	if err != nil {
		t.Fatal(err)
	}
	return NewGraph("cycle", set)
}

func TestDistTableAt(t *testing.T) {
	compact := DistTable{d8: []uint8{1, 0, 3}}
	if compact.At(0) != 0 || compact.At(1) != -1 || compact.At(2) != 2 {
		t.Fatalf("compact At = %d,%d,%d, want 0,-1,2", compact.At(0), compact.At(1), compact.At(2))
	}
	if compact.d8 == nil || compact.Len() != 3 || compact.Bytes() != 3 {
		t.Fatalf("compact meta: compact=%v Len=%d Bytes=%d", compact.d8 != nil, compact.Len(), compact.Bytes())
	}
	wide := NewDistTableWide([]int32{0, -1, 2})
	if wide.At(0) != 0 || wide.At(1) != -1 || wide.At(2) != 2 {
		t.Fatal("wide At disagrees")
	}
	if wide.d8 != nil || wide.Bytes() != 12 {
		t.Fatalf("wide meta: compact=%v Bytes=%d", wide.d8 != nil, wide.Bytes())
	}
	if !reflect.DeepEqual(compact.Int32Slice(), []int32{0, -1, 2}) {
		t.Fatalf("Int32Slice = %v", compact.Int32Slice())
	}
}

// TestUint8OverflowGuard lowers u8DistLimit and requires the engine to
// widen to the int32 backing instead of wrapping: at every worker count
// the result must be reflect.DeepEqual to the oracle's at the same limit,
// whose distances past the limit are exact. A 0/1 search must widen the
// same way while it closes levels under its free columns, and match the
// deque oracle.
func TestUint8OverflowGuard(t *testing.T) {
	const k = 7 // cycle of 7 states, eccentricity 6
	g := cycleGraph(t, k)
	src := perm.Identity(k)

	compact := oracleBFS(g, src, nil) // default limit: compact, no overflow
	if compact.Dist.d8 == nil {
		t.Fatal("reference run should stay compact")
	}
	if compact.Eccentricity != k-1 || compact.Reachable != int64(k) {
		t.Fatalf("cycle profile: ecc=%d reach=%d, want %d and %d", compact.Eccentricity, compact.Reachable, k-1, k)
	}

	defer func(old int32) { u8DistLimit = old }(u8DistLimit)
	u8DistLimit = 3

	want := oracleBFS(g, src, nil)
	if want.Dist.d8 != nil || !reflect.DeepEqual(want.Dist.Int32Slice(), compact.Dist.Int32Slice()) {
		t.Fatal("oracle: widened distances disagree with the compact run")
	}
	for _, workers := range []int{1, 3} {
		got, err := g.BFSParallel(src, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Dist.d8 != nil {
			t.Fatalf("workers=%d: distances exceed u8DistLimit=%d but the table stayed compact", workers, u8DistLimit)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: ecc=%d reach=%d hist=%v, oracle %d, %d, %v", workers,
				got.Eccentricity, got.Reachable, got.Histogram, want.Eccentricity, want.Reachable, want.Histogram)
		}
	}
	g.DropNeighborTable()

	// I_6 costs 1 and T2, T3 are free: every level is closed by passes at
	// its own distance (histogram 6 18 54 162 216 198 66), and levels 4..6
	// lie past the lowered limit.
	zg := NewGraph("0/1", gen.MustSet(6, gen.NewInsertion(6), gen.NewTransposition(2), gen.NewTransposition(3)))
	zsrc, weight := perm.Identity(6), []int{1, 0, 0}
	tbl, err := zg.EnsureNeighborTable(1)
	if err != nil {
		t.Fatal(err)
	}
	wantW := oracleWeighted(tbl, zsrc.Rank(), weight)
	if wantW.Eccentricity <= int(u8DistLimit) || wantW.Histogram[0] < 2 {
		t.Fatalf("0/1 graph: ecc=%d hist=%v, want distances past %d and a free closure at 0", wantW.Eccentricity, wantW.Histogram, u8DistLimit)
	}
	for _, workers := range []int{1, 3} {
		got, err := zg.bfsWeighted(zsrc, weight, workers)
		if err != nil {
			t.Fatalf("0/1 workers=%d: %v", workers, err)
		}
		if got.Dist.d8 != nil {
			t.Fatalf("0/1 workers=%d: distances exceed u8DistLimit=%d but the table stayed compact", workers, u8DistLimit)
		}
		sameWeighted(t, fmt.Sprintf("0/1 workers=%d", workers), got, wantW)
	}
}
