// Package scg is the public API of this repository: a Go implementation of
// the ball-arrangement game (BAG) and the super Cayley graph interconnection
// networks of Yeh & Varvarigos, "A Mathematical Game and Its Applications to
// the Design of Interconnection Networks", ICPP 2001.
//
// The package is a façade over the implementation packages:
//
//   - game construction and solving (= routing): NewGame, Solve, SolveStar;
//   - the nine super Cayley network classes (NewMacroStar,
//     NewRotationStar, ..., or New over AllSuperCayleyFamilies) plus the
//     star graph and IS network baselines, and the hypercube and k-ary
//     n-cube;
//   - exact measurement (diameter, average distance, intercluster metrics)
//     for every instance small enough to enumerate;
//   - the universal lower bound D_L(N,d), α ratios, and bisection bounds;
//   - a packet-level simulator for MNB, total exchange, and random routing;
//   - the Figure 4/5/6 and Table 1 harnesses.
//
// Quick start
//
//	nw, _ := scg.NewMacroStar(3, 2)              // MS(3,2), 5040 nodes
//	src, _ := scg.ParseNode("5342671")
//	dst := scg.IdentityNode(nw.K())
//	moves, _ := nw.Route(src, dst)               // ball-arrangement game solution
//	diameter, _ := nw.Graph().Diameter()         // exact, by BFS
package scg

import (
	"repro/internal/bag"
	"repro/internal/embed"
	"repro/internal/figures"
	"repro/internal/gen"
	"repro/internal/mcmp"
	"repro/internal/metrics"
	"repro/internal/perm"
	"repro/internal/sim"
	"repro/internal/topology"
)

// --- node labels -------------------------------------------------------------

// Node is a network node label: a permutation of 1..k, equivalently a
// configuration of the ball-arrangement game.
type Node = perm.Perm

// IdentityNode returns the identity node label 1 2 ... k (the solved game).
func IdentityNode(k int) Node { return perm.Identity(k) }

// ParseNode parses a node label such as "5342671" (or space-separated for
// k >= 10).
func ParseNode(s string) (Node, error) { return perm.Parse(s) }

// RandomNode returns a uniformly random node label from a deterministic
// seed.
func RandomNode(k int, seed uint64) Node { return perm.Random(k, perm.NewRNG(seed)) }

// --- generators and games ------------------------------------------------------

// Move is one permissible game move / one network link dimension.
type Move = gen.Generator

// Game rule vocabulary re-exported from the game engine.
type (
	// GameRules fixes a ball-arrangement game variant (layout + move styles).
	GameRules = bag.Rules
)

// Nucleus and super move styles (§2 of the paper).
const (
	TranspositionBalls = bag.TranspositionNucleus
	InsertionBalls     = bag.InsertionNucleus
	SwapBoxes          = bag.SwapSuper
	RotateBoxesPair    = bag.RotPairSuper
	RotateBoxesAll     = bag.RotCompleteSuper
)

// NewGame builds the rules of a BAG with l boxes of n balls and the given
// move styles.
func NewGame(l, n int, nucleus bag.NucleusStyle, super bag.SuperStyle) (GameRules, error) {
	ly, err := bag.NewLayout(l, n)
	if err != nil {
		return GameRules{}, err
	}
	r := bag.Rules{Layout: ly, Nucleus: nucleus, Super: super}
	return r, r.Validate()
}

// Solve solves a game from configuration u to the identity, returning the
// move sequence (searching all box-color assignments for rotation games).
func Solve(rules GameRules, u Node) ([]Move, error) { return bag.Solve(rules, u) }

// SolveWithOffset solves with a fixed cyclic box-color assignment — the
// choice Figures 1–3 of the paper illustrate.
func SolveWithOffset(rules GameRules, u Node, offset int) ([]Move, error) {
	return bag.SolveWithOffset(rules, u, offset)
}

// SolveStar solves the k-star game (exchange the leftmost ball with any
// ball) in at most ⌊3(k-1)/2⌋ moves.
func SolveStar(u Node) ([]Move, error) { return bag.SolveStar(u) }

// VerifyGame checks that moves legally solve the game (rules, u).
func VerifyGame(rules GameRules, u Node, moves []Move) error { return bag.Verify(rules, u, moves) }

// MoveNames renders moves in the paper's notation (T3, S2, I4, R2, ...).
func MoveNames(moves []Move) []string { return bag.MoveNames(moves) }

// --- networks -------------------------------------------------------------------

// Network is a concrete interconnection network instance.
type Network = topology.Network

// Family identifies a network class.
type Family = topology.Family

// MSFamily names the macro-star class for New and DegreeFormula.
const MSFamily = topology.MS

// New builds any family instance; see the per-family constructors for the
// parameter conventions.
func New(fam Family, l, n int) (*Network, error) { return topology.New(fam, l, n) }

// NewStarGraph returns the k-dimensional star graph.
func NewStarGraph(k int) (*Network, error) { return topology.NewStar(k) }

// NewISNetwork returns the k-dimensional insertion-selection network
// (Definition 3.10).
func NewISNetwork(k int) (*Network, error) { return topology.NewIS(k) }

// NewMacroStar returns the macro-star network MS(l,n).
func NewMacroStar(l, n int) (*Network, error) { return topology.NewMS(l, n) }

// NewRotationStar returns the rotation-star network RS(l,n) (Definition 3.5).
func NewRotationStar(l, n int) (*Network, error) { return topology.NewRS(l, n) }

// NewCompleteRotationStar returns complete-RS(l,n) (Definition 3.6).
func NewCompleteRotationStar(l, n int) (*Network, error) { return topology.NewCompleteRS(l, n) }

// NewMacroRotator returns the macro-rotator network MR(l,n) (Definition 3.7).
func NewMacroRotator(l, n int) (*Network, error) { return topology.NewMR(l, n) }

// NewCompleteRotationRotator returns complete-RR(l,n) (Definition 3.9).
func NewCompleteRotationRotator(l, n int) (*Network, error) { return topology.NewCompleteRR(l, n) }

// NewRotationIS returns the rotation-IS network RIS(l,n) (Definition 3.12).
func NewRotationIS(l, n int) (*Network, error) { return topology.NewRIS(l, n) }

// AllSuperCayleyFamilies lists the nine super Cayley classes in paper order.
func AllSuperCayleyFamilies() []Family { return topology.AllSuperCayleyFamilies() }

// Baseline constructors.
var (
	NewHypercube = topology.NewHypercube
	NewKAryNCube = topology.NewKAryNCube
)

// DegreeFormula returns the closed-form degree of a family instance.
func DegreeFormula(fam Family, l, n int) (int, error) { return topology.DegreeFormula(fam, l, n) }

// --- metrics --------------------------------------------------------------------

// AlphaRatio is the diameter-to-lower-bound ratio α of §4.2.
func AlphaRatio(diameter int, n float64, d int) (float64, error) {
	return metrics.Alpha(diameter, n, d)
}

// AvgDistanceLowerBound is the Moore-packing bound on average distance.
func AvgDistanceLowerBound(n float64, d int) (float64, error) {
	return metrics.AvgDistanceLowerBound(n, d)
}

// BisectionLowerBound is the Theorem 4.9 bound BB >= w·N/(4·D̄_inter).
func BisectionLowerBound(w, n, avgInter float64) (float64, error) {
	return metrics.BisectionLowerBound(w, n, avgInter)
}

// MCMPProfile is the §4.3 packaging profile of a network.
type MCMPProfile = mcmp.Profile

// MeasureMCMP computes intercluster degree/diameter/average distance and
// off-chip link bandwidth for a super Cayley network, with per-node off-chip
// bandwidth w.
func MeasureMCMP(nw *Network, w float64) (*MCMPProfile, error) {
	return mcmp.Measure(nw.Graph(), w)
}

// --- embeddings -----------------------------------------------------------------

// StarEmbeddingReport summarizes the star -> IS embedding measurement.
type StarEmbeddingReport = embed.EmbeddingReport

// MeasureStarIntoIS verifies the congestion-1 dilation-2 embedding of
// star(k) into IS(k) (§3.3.3).
func MeasureStarIntoIS(k, samples int) (*StarEmbeddingReport, error) {
	return embed.MeasureStarIntoIS(k, samples)
}

// EmulateStarOnIS converts a star-graph route to an IS route with slowdown
// at most 2.
func EmulateStarOnIS(moves []Move) ([]Move, error) { return embed.EmulateStarOnIS(moves) }

// EmulateStarOnMS converts a star-graph route to a macro-star route with
// slowdown at most 3.
func EmulateStarOnMS(l, n int, moves []Move) ([]Move, error) {
	ly, err := bag.NewLayout(l, n)
	if err != nil {
		return nil, err
	}
	return embed.EmulateStarOnMS(ly, moves)
}

// --- simulation -----------------------------------------------------------------

// Simulator vocabulary re-exported from the packet-level engine.
type (
	SimTopology = sim.Topology
	PortModel   = sim.PortModel
)

// Port models.
const (
	AllPort    = sim.AllPort
	SinglePort = sim.SinglePort
)

// NewSimNetwork adapts a permutation network to the simulator. Its hops
// are read from the graph's neighbor table, so the network must have
// k <= core.MaxExplicitK (10); larger ones are refused with an error.
func NewSimNetwork(nw *Network) (SimTopology, error) { return sim.NewPermTopology(nw) }

// NewSimHypercube builds the baseline hypercube simulator topology.
func NewSimHypercube(d int) (SimTopology, error) { return sim.NewHypercubeTopology(d) }

// RunUnicast, RunBroadcast and the workload builders drive the simulator.
// Every task takes a Recorder as its last argument; nil means tracing off.
var (
	RunUnicast         = sim.RunUnicast
	RunBroadcast       = sim.RunBroadcast
	TotalExchange      = sim.TotalExchange
	PermutationRouting = sim.PermutationRouting
)

// --- figures and tables -----------------------------------------------------------

var (
	// Fig4Degrees regenerates Figure 4 (node degree vs log2 N).
	Fig4Degrees = figures.Fig4Degrees
	// Fig5Diameters regenerates Figure 5 (diameter vs log2 N).
	Fig5Diameters = figures.Fig5Diameters
	// Fig6Cost regenerates Figure 6 (degree × diameter vs log2 N).
	Fig6Cost = figures.Fig6Cost
	// Table1 regenerates Table 1 (α ratios).
	Table1 = figures.Table1
)
