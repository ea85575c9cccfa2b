package scg

// Façade for the routing-quality and steady-state-throughput analysis
// tools.

import (
	"repro/internal/bag"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/sim"
)

// GameStats summarizes a solved game (move mix, color-0 waste).
type GameStats = bag.Stats

// AnalyzeGame replays a solution and gathers its statistics.
func AnalyzeGame(rules GameRules, u Node, moves []Move) GameStats {
	return bag.Analyze(rules, u, moves)
}

// Color0Bound returns the §2.3 bound on wasted color-0 moves for the rules.
func Color0Bound(rules GameRules) int { return bag.Color0Bound(rules) }

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

// ShortestRoute returns an exact minimum-hop link-index sequence between two
// nodes, found by BFS (k <= 10). For algorithmic routing use Network.Route.
func ShortestRoute(nw *Network, src, dst Node) ([]int, error) {
	return nw.Graph().ShortestPath(src, dst)
}

// OpenLoopResult reports a steady-state traffic run.
type OpenLoopResult = sim.OpenLoopResult

// RunOpenLoop injects Bernoulli uniform-random traffic at the given rate
// (packets/node/step) for the horizon and measures throughput and latency;
// rec (nil means tracing off) receives every step.
func RunOpenLoop(topo SimTopology, rate float64, steps int, model PortModel, seed uint64, rec Recorder) (*OpenLoopResult, error) {
	return sim.RunOpenLoop(topo, rate, steps, model, seed, rec)
}

// SaturationThroughput estimates per-node capacity by sweeping offered
// rates.
func SaturationThroughput(topo SimTopology, steps int, model PortModel, seed uint64) (float64, error) {
	return sim.SaturationThroughput(topo, steps, model, seed)
}

// SolveOptimal finds a provably shortest game solution by iterative-
// deepening A* — exact routing without BFS memory; practical for short
// distances at any k and for full instances at k <= ~7.
func SolveOptimal(rules GameRules, u Node, maxDepth int) ([]Move, error) {
	return bag.SolveOptimal(rules, u, maxDepth)
}

// GameDistance returns the exact game distance (optimal solution length).
func GameDistance(rules GameRules, u Node, maxDepth int) (int, error) {
	return bag.Distance(rules, u, maxDepth)
}

// CompareRow is one row of the §4.1 comparison table.
type CompareRow = figures.CompareRow

// CompareTable compares all families at (l,n); exact=true measures
// diameters by BFS (k <= 10).
func CompareTable(l, n int, exact bool) ([]CompareRow, error) {
	return figures.CompareTable(l, n, exact)
}

// RenderCompareTable renders the §4.1 comparison as text.
func RenderCompareTable(rows []CompareRow) string { return figures.RenderCompareTable(rows) }

// RenderASCIIFigure draws figure series as a terminal scatter plot.
func RenderASCIIFigure(title string, series []FigureSeries, width, height int, logY bool) string {
	return figures.RenderASCII(title, series, width, height, logY)
}

// RunUnicastBuffered is RunUnicast with finite per-link buffers and credit
// flow control; it reports deadlock explicitly when blocking dependencies
// cycle, after a deadlock-detected event and the partial histograms to rec
// (nil means tracing off).
func RunUnicastBuffered(topo SimTopology, pkts []SimPacket, model PortModel, bufCap, maxSteps int, rec Recorder) (*SimResult, error) {
	return sim.RunUnicastBuffered(topo, pkts, model, bufCap, maxSteps, rec)
}

// HotspotWorkload builds traffic with a fraction of packets aimed at one
// node.
func HotspotWorkload(n int64, count int, hot int64, fraction float64, seed uint64) []SimPacket {
	return sim.Hotspot(n, count, hot, fraction, seed)
}
