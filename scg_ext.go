package scg

// Façade for the extension modules: §3.3.4 network variants, spanning-tree
// collectives and fault-tolerance measurement.

import (
	"repro/internal/collective"
	"repro/internal/fault"
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
	FaultLink  = fault.Link
	FaultSet   = fault.Set
	FaultTrial = fault.Trial
)

// NewFaultSet builds a fault set from directed links.
func NewFaultSet(links ...FaultLink) FaultSet { return fault.NewSet(links...) }

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

// --- simulation over spanning trees and faulted networks ---------------------------

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
