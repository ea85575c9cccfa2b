package core

import "repro/internal/perm"

// OracleBFS exposes the test oracle to the external core_test package.
func OracleBFS(g *Graph, src perm.Perm) *BFSResult { return oracleBFS(g, src) }

// RaceEnabled exposes raceEnabled to the external core_test package.
const RaceEnabled = raceEnabled
