package core

import (
	"testing"

	"repro/internal/perm"
)

// OracleBFS exposes the test oracle to the external core_test package.
func OracleBFS(g *Graph, src perm.Perm, cut [][]uint64) *BFSResult { return oracleBFS(g, src, cut) }

// OracleWeighted exposes the 0/1 deque oracle to core_test.
func OracleWeighted(tbl *NeighborTable, srcRank int64, weight []int) *BFSResult {
	return oracleWeighted(tbl, srcRank, weight)
}

// SameWeighted exposes sameWeighted to core_test.
func SameWeighted(t testing.TB, what string, got, want *BFSResult) { sameWeighted(t, what, got, want) }

// BFSWeightedWorkers runs BFSWeighted on the given worker count.
func (g *Graph) BFSWeightedWorkers(src perm.Perm, weight []int, workers int) (*BFSResult, error) {
	return g.bfsWeighted(src, weight, workers)
}

// BFSWithoutWorkers runs BFSWithout on the given worker count.
func (g *Graph) BFSWithoutWorkers(src perm.Perm, cut [][]uint64, workers int) (*BFSResult, error) {
	return g.bfsWithout(src, cut, workers)
}

// RaceEnabled exposes raceEnabled to the external core_test package.
const RaceEnabled = raceEnabled
