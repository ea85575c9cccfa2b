package scg

// Façade for the extension modules: §3.3.4 network variants, spanning-tree
// collectives, fault-tolerance measurement, and the pin-limited throughput
// model.

import (
	"repro/internal/collective"
	"repro/internal/embed"
	"repro/internal/fault"
	"repro/internal/figures"
	"repro/internal/metrics"
	"repro/internal/topology"
)

// --- §3.3.4 network variants ---------------------------------------------------

// NewRotationSubsetStar builds a star-nucleus network whose super
// generators are the rotations R^e for e in exps — cost/performance between
// RS and complete-RS (§3.3.4).
func NewRotationSubsetStar(l, n int, exps []int) (*Network, error) {
	return topology.NewRotationSubsetStar(l, n, exps)
}

// NewRecursiveMS builds the recursive macro-star MS(l; l1, n1), replacing
// each (n+1)-star nucleus of MS(l, l1·n1) with an MS(l1,n1) network
// (§3.3.4).
func NewRecursiveMS(l, l1, n1 int) (*Network, error) {
	return topology.NewRecursiveMS(l, l1, n1)
}

// RotationExpansion expresses a rotation by t box positions as a minimal
// word over the available rotation exponents modulo l.
func RotationExpansion(l, t int, exps []int) ([]int, error) {
	return topology.RotationExpansion(l, t, exps)
}

// --- collectives ----------------------------------------------------------------

// BroadcastTree is a spanning tree used by structured broadcast.
type BroadcastTree = collective.Tree

// NewBroadcastTree builds a BFS spanning tree of the network rooted at
// root; its height equals the diameter by vertex symmetry.
func NewBroadcastTree(nw *Network, root Node) (*BroadcastTree, error) {
	return collective.BFSTree(nw.Graph(), root)
}

// MNBPipelinedBound bounds multinode-broadcast time by pipelining
// single-node broadcasts over the tree.
func MNBPipelinedBound(t *BroadcastTree, model PortModel, inDegree int) int64 {
	return collective.MNBPipelinedBound(t, model, inDegree)
}

// --- fault tolerance --------------------------------------------------------------

// Fault vocabulary re-exported from the fault-injection engine.
type (
	FaultLink    = fault.Link
	FaultSet     = fault.Set
	FaultProfile = fault.Profile
	FaultTrial   = fault.Trial
)

// NewFaultSet builds a fault set from directed links.
func NewFaultSet(links ...FaultLink) FaultSet { return fault.NewSet(links...) }

// FaultBFS measures reachability and distances from src with the failed
// links removed. A link outside the network is an error.
func FaultBFS(nw *Network, faults FaultSet, src Node) (*FaultProfile, error) {
	return fault.BFS(nw.Graph(), faults, src)
}

// RandomFaultTrials injects random link failures repeatedly and reports
// connectivity and distance inflation. faults must lie in 0..N·degree,
// the network's count of directed links.
func RandomFaultTrials(nw *Network, faults, runs int, seed uint64) (*FaultTrial, error) {
	return fault.RandomTrials(nw.Graph(), faults, runs, seed)
}

// MirrorFaultsUndirected adds the reverse direction of each failed link (a
// severed physical wire in an undirected network).
func MirrorFaultsUndirected(nw *Network, faults FaultSet) (FaultSet, error) {
	return fault.MirrorUndirected(nw.Graph(), faults)
}

// --- throughput and average-distance analysis --------------------------------------

// PinLimitedThroughput returns the §4.2 throughput bound P / D̄ for a
// per-node pin budget P and average distance D̄.
func PinLimitedThroughput(pins, avgDist float64) (float64, error) {
	return metrics.PinLimitedThroughput(pins, avgDist)
}

// DirectedDiameterLowerBound is the directed-graph analogue of D_L.
func DirectedDiameterLowerBound(n float64, d int) (float64, error) {
	return metrics.DLDirected(n, d)
}

// AvgDistanceRow is one row of the Theorem 4.7 table.
type AvgDistanceRow = figures.AvgDistanceRow

// AvgDistanceTable measures exact average distances (Theorem 4.7) for every
// family at (l,n) plus the same-k star graph.
func AvgDistanceTable(l, n int) ([]AvgDistanceRow, error) { return figures.AvgDistanceTable(l, n) }

// RenderAvgDistanceTable renders the Theorem 4.7 table as text.
func RenderAvgDistanceTable(rows []AvgDistanceRow) string {
	return figures.RenderAvgDistanceTable(rows)
}

// RecursiveDilation re-exported: worst inner-word length of a recursive MS.
func RecursiveDilation(nw *Network) (int, error) { return nw.RecursiveDilation() }

// TreeMNBResult reports a translated-tree multinode broadcast simulation.
type TreeMNBResult = collective.TreeMNBResult

// SimulateTreeMNB runs the structured MNB of §5: every node's message flows
// down its own translate of a BFS spanning tree. Each message crosses
// exactly N-1 links, and under the single-port model the completion time
// meets the N-1 lower bound on vertex-symmetric networks.
func SimulateTreeMNB(nw *Network, model PortModel, maxSteps int) (*TreeMNBResult, error) {
	return collective.SimulateTreeMNB(nw.Graph(), model, maxSteps)
}

// NewFaultRoutedTopology adapts a faulted network to the simulator with
// exact shortest-path routing around the failures. A link outside the
// network is an error.
func NewFaultRoutedTopology(nw *Network, faults FaultSet) (SimTopology, error) {
	return fault.NewRoutedTopology(nw.Graph(), faults)
}

// ScatterTime computes single-node scatter (one-to-all personalized)
// completion time along a spanning tree with farthest-first scheduling;
// gather is its time reversal with identical cost on undirected networks.
func ScatterTime(t *BroadcastTree, model PortModel) (int, error) {
	return collective.ScatterTime(t, model)
}

// ScatterLowerBound returns max(⌈(N-1)/ports⌉, tree height).
func ScatterLowerBound(t *BroadcastTree, model PortModel, outDegree int) int64 {
	return collective.ScatterLowerBound(t, model, outDegree)
}

// GrowthRow is one row of the exact-diameter growth table.
type GrowthRow = figures.GrowthRow

// DiameterGrowthTable measures exact diameters of families across sizes.
func DiameterGrowthTable(maxK int, fams []Family) ([]GrowthRow, error) {
	return figures.DiameterGrowthTable(maxK, fams)
}

// RenderGrowthTable renders the growth table as text.
func RenderGrowthTable(rows []GrowthRow) string { return figures.RenderGrowthTable(rows) }

// SJTCycle returns the constructive Steinhaus–Johnson–Trotter Hamiltonian
// cycle of the k-dimensional bubble-sort graph (k! adjacent transpositions);
// through EmulateBubbleOnStar it walks star-based networks as a dilation-3
// ring.
func SJTCycle(k int) ([]Move, error) { return embed.SJTCycle(k) }

// EmulateBubbleOnStar converts a bubble-sort route or cycle to star-graph
// moves with slowdown at most 3.
func EmulateBubbleOnStar(moves []Move) ([]Move, error) { return embed.EmulateBubbleOnStar(moves) }

// HamiltonianCycle searches a small Cayley graph for a Hamiltonian cycle by
// bounded backtracking (demonstrating ring embeddings on 24-node instances).
func HamiltonianCycle(nw *Network, maxNodes, maxSteps int64) ([]int, error) {
	return embed.HamiltonianCycle(nw.Graph(), maxNodes, maxSteps)
}
