package scg

// Façade for the routing-quality and steady-state-throughput analysis
// tools.

import (
	"repro/internal/bag"
	"repro/internal/core"
	"repro/internal/sim"
)

// FormatBoxes renders a configuration as the paper's figures draw it, e.g.
// "5 [34][26][71]".
func FormatBoxes(rules GameRules, u Node) string { return bag.FormatBoxes(rules.Layout, u) }

// StretchStats summarizes routing quality versus exact shortest paths.
type StretchStats = core.StretchStats

// MeasureRoutingStretch samples random pairs and compares the network's
// game-solver routes against exact BFS shortest paths (k <= 10).
func MeasureRoutingStretch(nw *Network, pairs int, seed uint64) (*StretchStats, error) {
	return nw.Graph().MeasureStretch(pairs, seed, func(src, dst Node) (int, error) {
		return nw.RouteLen(src, dst)
	})
}

// SaturationThroughput estimates per-node capacity by sweeping offered
// rates.
func SaturationThroughput(topo SimTopology, steps int, model PortModel, seed uint64) (float64, error) {
	return sim.SaturationThroughput(topo, steps, model, seed)
}
