// Package topology defines every network class evaluated in the paper: the
// nine super Cayley graph families of §3.3 (macro-star, rotation-star,
// complete-rotation-star, macro-rotator, rotation-rotator,
// complete-rotation-rotator, insertion-selection, macro-IS, rotation-IS, and
// complete-rotation-IS), the permutation-graph baselines they are compared
// against (star, rotator, pancake, bubble-sort, transposition network), and
// the array baselines of Figures 4–6 (hypercube, 2-D/3-D torus, k-ary
// n-cube, CCC).
//
// Every super Cayley network couples three things:
//
//   - a generator set (its Cayley graph, measurable exactly via
//     internal/core for k ≤ 10),
//   - the ball-arrangement game rules whose solver routes packets in it
//     (internal/bag), and
//   - closed-form degree and diameter-bound formulas used by the figure
//     harness at sizes far beyond exhaustive reach.
package topology

import (
	"fmt"

	"repro/internal/bag"
	"repro/internal/core"
	"repro/internal/gen"
)

// Family enumerates the network classes.
type Family int

const (
	Star Family = iota
	Rotator
	Pancake
	BubbleSort
	TranspositionNet
	IS
	MS
	RS
	CompleteRS
	MR
	RR
	CompleteRR
	MIS
	RIS
	CompleteRIS
)

func (f Family) String() string {
	switch f {
	case Star:
		return "star"
	case Rotator:
		return "rotator"
	case Pancake:
		return "pancake"
	case BubbleSort:
		return "bubble-sort"
	case TranspositionNet:
		return "transposition"
	case IS:
		return "IS"
	case MS:
		return "MS"
	case RS:
		return "RS"
	case CompleteRS:
		return "complete-RS"
	case MR:
		return "MR"
	case RR:
		return "RR"
	case CompleteRR:
		return "complete-RR"
	case MIS:
		return "MIS"
	case RIS:
		return "RIS"
	case CompleteRIS:
		return "complete-RIS"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// IsSuperCayley reports whether the family is one of the paper's super
// Cayley graph classes (it has distinct nucleus and super generators).
func (f Family) IsSuperCayley() bool {
	switch f {
	case MS, RS, CompleteRS, MR, RR, CompleteRR, MIS, RIS, CompleteRIS:
		return true
	}
	return false
}

// Network is a concrete instance of one family.
type Network struct {
	family Family
	l, n   int // super Cayley parameters; l = 1, n = k-1 for nucleus-only nets
	graph  *core.Graph
	// rules are the game rules whose solver routes in this network; only
	// set for families routed by internal/bag.
	rules    bag.Rules
	hasRules bool
	// rotSubset, when non-nil, marks a rotation-subset network (§3.3.4) and
	// lists the available rotation exponents; routing expands complete
	// rotations into words over these.
	rotSubset []int
	// recursive, when non-nil, marks a recursive MS (§3.3.4); routing
	// expands outer nucleus transpositions into inner-MS words.
	recursive *recursiveSpec
	// links, names and allowedPerm serve the allocation-free route path:
	// the link number of each link's generator, the rendered paper
	// notation by link number, and link membership by action (for
	// client-supplied moves whose notation differs).
	links       linkTable
	names       []string
	allowedPerm map[string]bool
}

// Family returns the network's class.
func (nw *Network) Family() Family { return nw.family }

// L returns the number of super-symbols (boxes); 1 for nucleus-only nets.
func (nw *Network) L() int { return nw.l }

// N returns the super-symbol length (balls per box).
func (nw *Network) N() int { return nw.n }

// K returns the number of symbols in a node label.
func (nw *Network) K() int { return nw.graph.K() }

// Nodes returns the network size N = k!.
func (nw *Network) Nodes() int64 { return nw.graph.Order() }

// Graph returns the underlying Cayley graph.
func (nw *Network) Graph() *core.Graph { return nw.graph }

// Degree returns the node degree (= number of distinct generators).
func (nw *Network) Degree() int { return nw.graph.Degree() }

// InterclusterDegree returns the number of super generators (§4.3).
func (nw *Network) InterclusterDegree() int { return nw.graph.InterclusterDegree() }

// Undirected reports whether the network is an undirected Cayley graph.
func (nw *Network) Undirected() bool { return nw.graph.Undirected() }

// Name renders the instance name in the paper's notation, e.g. "MS(3,2)".
func (nw *Network) Name() string { return nw.graph.Name() }

// Rules returns the game rules used for routing and whether the network is
// game-routed.
func (nw *Network) Rules() (bag.Rules, bool) { return nw.rules, nw.hasRules }

func (nw *Network) String() string { return nw.graph.String() }

// dedupe removes generators whose action duplicates an earlier generator's
// (e.g. I2 and I2' both swap the first two symbols), keeping definition
// order. Cayley graph degree counts distinct generators only.
func dedupe(k int, gens []gen.Generator) []gen.Generator {
	seen := make(map[string]bool, len(gens))
	out := gens[:0]
	for _, g := range gens {
		key := g.AsPerm(k).String()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, g)
	}
	return out
}

func buildNetwork(family Family, name string, l, n, k int, gens []gen.Generator, rules bag.Rules, hasRules bool) (*Network, error) {
	gens = dedupe(k, gens)
	set, err := gen.NewSet(k, gens...)
	if err != nil {
		return nil, fmt.Errorf("topology: %s: %v", name, err)
	}
	nw := &Network{
		family:   family,
		l:        l,
		n:        n,
		graph:    core.NewGraph(name, set),
		rules:    rules,
		hasRules: hasRules,
	}
	links := set.Generators()
	if nw.links, err = newLinkTable(k, links); err != nil {
		return nil, err
	}
	nw.names = make([]string, len(links))
	nw.allowedPerm = make(map[string]bool, len(links))
	for j, g := range links {
		nw.names[j] = g.Name()
		nw.allowedPerm[g.AsPerm(k).String()] = true
	}
	return nw, nil
}

// --- nucleus-only families -------------------------------------------------

// NewStar returns the k-dimensional star graph: undirected Cayley graph with
// transposition generators T_2..T_k.
func NewStar(k int) (*Network, error) {
	if k < 2 {
		return nil, fmt.Errorf("topology: NewStar(%d): k must be >= 2", k)
	}
	var gens []gen.Generator
	for i := 2; i <= k; i++ {
		gens = append(gens, gen.NewTransposition(i))
	}
	return buildNetwork(Star, fmt.Sprintf("star(%d)", k), 1, k-1, k, gens, bag.Rules{}, false)
}

// NewRotator returns the k-dimensional rotator graph (Corbett): directed
// Cayley graph with insertion generators I_2..I_k.
func NewRotator(k int) (*Network, error) {
	if k < 2 {
		return nil, fmt.Errorf("topology: NewRotator(%d): k must be >= 2", k)
	}
	var gens []gen.Generator
	for i := 2; i <= k; i++ {
		gens = append(gens, gen.NewInsertion(i))
	}
	return buildNetwork(Rotator, fmt.Sprintf("rotator(%d)", k), 1, k-1, k, gens, bag.Rules{}, false)
}

// NewPancake returns the k-dimensional pancake graph: undirected Cayley
// graph with prefix-reversal generators F_2..F_k.
func NewPancake(k int) (*Network, error) {
	if k < 2 {
		return nil, fmt.Errorf("topology: NewPancake(%d): k must be >= 2", k)
	}
	var gens []gen.Generator
	for i := 2; i <= k; i++ {
		gens = append(gens, gen.NewPrefixReversal(i))
	}
	return buildNetwork(Pancake, fmt.Sprintf("pancake(%d)", k), 1, k-1, k, gens, bag.Rules{}, false)
}

// NewBubbleSort returns the k-dimensional bubble-sort graph: undirected
// Cayley graph with adjacent transpositions P_{i,i+1}.
func NewBubbleSort(k int) (*Network, error) {
	if k < 2 {
		return nil, fmt.Errorf("topology: NewBubbleSort(%d): k must be >= 2", k)
	}
	var gens []gen.Generator
	for i := 1; i < k; i++ {
		gens = append(gens, gen.NewPositionSwap(i, i+1))
	}
	return buildNetwork(BubbleSort, fmt.Sprintf("bubble(%d)", k), 1, k-1, k, gens, bag.Rules{}, false)
}

// NewTranspositionNet returns the k-dimensional transposition network:
// undirected Cayley graph with all position swaps P_{i,j}.
func NewTranspositionNet(k int) (*Network, error) {
	if k < 2 {
		return nil, fmt.Errorf("topology: NewTranspositionNet(%d): k must be >= 2", k)
	}
	var gens []gen.Generator
	for i := 1; i < k; i++ {
		for j := i + 1; j <= k; j++ {
			gens = append(gens, gen.NewPositionSwap(i, j))
		}
	}
	return buildNetwork(TranspositionNet, fmt.Sprintf("transposition(%d)", k), 1, k-1, k, gens, bag.Rules{}, false)
}

// NewIS returns the k-dimensional insertion-selection network (Definition
// 3.10): undirected Cayley graph with insertions I_2..I_k and selections
// I_2'..I_k' (I_2' duplicates I_2, so the degree is 2k-3).
func NewIS(k int) (*Network, error) {
	if k < 2 {
		return nil, fmt.Errorf("topology: NewIS(%d): k must be >= 2", k)
	}
	var gens []gen.Generator
	for i := 2; i <= k; i++ {
		gens = append(gens, gen.NewInsertion(i))
	}
	for i := 2; i <= k; i++ {
		gens = append(gens, gen.NewSelection(i))
	}
	rules := bag.Rules{Layout: bag.MustLayout(1, k-1), Nucleus: bag.InsertionNucleus, Super: bag.NoSuper}
	return buildNetwork(IS, fmt.Sprintf("IS(%d)", k), 1, k-1, k, gens, rules, true)
}

// --- super Cayley families ---------------------------------------------------

func checkLN(fam Family, l, n int) error {
	if l < 2 || n < 1 {
		return fmt.Errorf("topology: %v(%d,%d): need l >= 2 and n >= 1", fam, l, n)
	}
	return nil
}

// nucleusGens returns the nucleus generator block shared by each family.
func transpositionNucleus(n int) []gen.Generator {
	var gens []gen.Generator
	for i := 2; i <= n+1; i++ {
		gens = append(gens, gen.NewTransposition(i))
	}
	return gens
}

func insertionNucleus(n int) []gen.Generator {
	var gens []gen.Generator
	for i := 2; i <= n+1; i++ {
		gens = append(gens, gen.NewInsertion(i))
	}
	return gens
}

func insertionSelectionNucleus(n int) []gen.Generator {
	gens := insertionNucleus(n)
	for i := 2; i <= n+1; i++ {
		gens = append(gens, gen.NewSelection(i))
	}
	return gens
}

func swapSupers(l, n int) []gen.Generator {
	var gens []gen.Generator
	for i := 2; i <= l; i++ {
		gens = append(gens, gen.NewSwap(i, n))
	}
	return gens
}

func rotationPairSupers(l, n int) []gen.Generator {
	gens := []gen.Generator{gen.NewRotation(1, n)}
	if l > 2 {
		gens = append(gens, gen.NewRotation(l-1, n))
	}
	return gens
}

func rotationAllSupers(l, n int) []gen.Generator {
	var gens []gen.Generator
	for i := 1; i <= l-1; i++ {
		gens = append(gens, gen.NewRotation(i, n))
	}
	return gens
}

// NewMS returns the macro-star network MS(l,n) (§3.1): transposition
// nucleus generators plus swap super generators.
func NewMS(l, n int) (*Network, error) {
	if err := checkLN(MS, l, n); err != nil {
		return nil, err
	}
	k := n*l + 1
	gens := append(transpositionNucleus(n), swapSupers(l, n)...)
	rules := bag.Rules{Layout: bag.MustLayout(l, n), Nucleus: bag.TranspositionNucleus, Super: bag.SwapSuper}
	return buildNetwork(MS, fmt.Sprintf("MS(%d,%d)", l, n), l, n, k, gens, rules, true)
}

// NewRS returns the rotation-star network RS(l,n) (Definition 3.5):
// transposition nucleus plus the rotation pair R, R^{-1}.
func NewRS(l, n int) (*Network, error) {
	if err := checkLN(RS, l, n); err != nil {
		return nil, err
	}
	k := n*l + 1
	gens := append(transpositionNucleus(n), rotationPairSupers(l, n)...)
	rules := bag.Rules{Layout: bag.MustLayout(l, n), Nucleus: bag.TranspositionNucleus, Super: bag.RotPairSuper}
	return buildNetwork(RS, fmt.Sprintf("RS(%d,%d)", l, n), l, n, k, gens, rules, true)
}

// NewCompleteRS returns the complete-rotation-star network (Definition 3.6):
// transposition nucleus plus all rotations R^1..R^{l-1}.
func NewCompleteRS(l, n int) (*Network, error) {
	if err := checkLN(CompleteRS, l, n); err != nil {
		return nil, err
	}
	k := n*l + 1
	gens := append(transpositionNucleus(n), rotationAllSupers(l, n)...)
	rules := bag.Rules{Layout: bag.MustLayout(l, n), Nucleus: bag.TranspositionNucleus, Super: bag.RotCompleteSuper}
	return buildNetwork(CompleteRS, fmt.Sprintf("complete-RS(%d,%d)", l, n), l, n, k, gens, rules, true)
}

// NewMR returns the macro-rotator network MR(l,n) (Definition 3.7):
// insertion nucleus plus swap super generators (directed).
func NewMR(l, n int) (*Network, error) {
	if err := checkLN(MR, l, n); err != nil {
		return nil, err
	}
	k := n*l + 1
	gens := append(insertionNucleus(n), swapSupers(l, n)...)
	rules := bag.Rules{Layout: bag.MustLayout(l, n), Nucleus: bag.InsertionNucleus, Super: bag.SwapSuper}
	return buildNetwork(MR, fmt.Sprintf("MR(%d,%d)", l, n), l, n, k, gens, rules, true)
}

// NewRR returns the rotation-rotator network RR(l,n) (Definition 3.8):
// insertion nucleus plus the single rotation R (directed).
func NewRR(l, n int) (*Network, error) {
	if err := checkLN(RR, l, n); err != nil {
		return nil, err
	}
	k := n*l + 1
	gens := append(insertionNucleus(n), gen.NewRotation(1, n))
	rules := bag.Rules{Layout: bag.MustLayout(l, n), Nucleus: bag.InsertionNucleus, Super: bag.RotSingleSuper}
	return buildNetwork(RR, fmt.Sprintf("RR(%d,%d)", l, n), l, n, k, gens, rules, true)
}

// NewCompleteRR returns the complete-rotation-rotator network (Definition
// 3.9): insertion nucleus plus all rotations (directed).
func NewCompleteRR(l, n int) (*Network, error) {
	if err := checkLN(CompleteRR, l, n); err != nil {
		return nil, err
	}
	k := n*l + 1
	gens := append(insertionNucleus(n), rotationAllSupers(l, n)...)
	rules := bag.Rules{Layout: bag.MustLayout(l, n), Nucleus: bag.InsertionNucleus, Super: bag.RotCompleteSuper}
	return buildNetwork(CompleteRR, fmt.Sprintf("complete-RR(%d,%d)", l, n), l, n, k, gens, rules, true)
}

// NewMIS returns the macro-IS network MIS(l,n) (Definition 3.11):
// insertion+selection nucleus plus swap super generators (undirected).
func NewMIS(l, n int) (*Network, error) {
	if err := checkLN(MIS, l, n); err != nil {
		return nil, err
	}
	k := n*l + 1
	gens := append(insertionSelectionNucleus(n), swapSupers(l, n)...)
	rules := bag.Rules{Layout: bag.MustLayout(l, n), Nucleus: bag.InsertionNucleus, Super: bag.SwapSuper}
	return buildNetwork(MIS, fmt.Sprintf("MIS(%d,%d)", l, n), l, n, k, gens, rules, true)
}

// NewRIS returns the rotation-IS network RIS(l,n) (Definition 3.12):
// insertion+selection nucleus plus the rotation pair (undirected).
func NewRIS(l, n int) (*Network, error) {
	if err := checkLN(RIS, l, n); err != nil {
		return nil, err
	}
	k := n*l + 1
	gens := append(insertionSelectionNucleus(n), rotationPairSupers(l, n)...)
	rules := bag.Rules{Layout: bag.MustLayout(l, n), Nucleus: bag.InsertionNucleus, Super: bag.RotPairSuper}
	return buildNetwork(RIS, fmt.Sprintf("RIS(%d,%d)", l, n), l, n, k, gens, rules, true)
}

// NewCompleteRIS returns the complete-rotation-IS network (Definition 3.13):
// insertion+selection nucleus plus all rotations (undirected).
func NewCompleteRIS(l, n int) (*Network, error) {
	if err := checkLN(CompleteRIS, l, n); err != nil {
		return nil, err
	}
	k := n*l + 1
	gens := append(insertionSelectionNucleus(n), rotationAllSupers(l, n)...)
	rules := bag.Rules{Layout: bag.MustLayout(l, n), Nucleus: bag.InsertionNucleus, Super: bag.RotCompleteSuper}
	return buildNetwork(CompleteRIS, fmt.Sprintf("complete-RIS(%d,%d)", l, n), l, n, k, gens, rules, true)
}

// New dispatches to the family constructor. For nucleus-only families the
// instance is determined by k = n+1 and l is ignored.
func New(fam Family, l, n int) (*Network, error) {
	switch fam {
	case Star:
		return NewStar(n + 1)
	case Rotator:
		return NewRotator(n + 1)
	case Pancake:
		return NewPancake(n + 1)
	case BubbleSort:
		return NewBubbleSort(n + 1)
	case TranspositionNet:
		return NewTranspositionNet(n + 1)
	case IS:
		return NewIS(n + 1)
	case MS:
		return NewMS(l, n)
	case RS:
		return NewRS(l, n)
	case CompleteRS:
		return NewCompleteRS(l, n)
	case MR:
		return NewMR(l, n)
	case RR:
		return NewRR(l, n)
	case CompleteRR:
		return NewCompleteRR(l, n)
	case MIS:
		return NewMIS(l, n)
	case RIS:
		return NewRIS(l, n)
	case CompleteRIS:
		return NewCompleteRIS(l, n)
	default:
		return nil, fmt.Errorf("topology: New: unknown family %v", fam)
	}
}

// AllSuperCayleyFamilies lists the nine super Cayley classes in paper order.
func AllSuperCayleyFamilies() []Family {
	return []Family{MS, RS, CompleteRS, MR, RR, CompleteRR, MIS, RIS, CompleteRIS}
}

// AllFamilies lists every family constructible by New: the permutation-graph
// baselines first, then the super Cayley classes in paper order.
func AllFamilies() []Family {
	return append([]Family{Star, Rotator, Pancake, BubbleSort, TranspositionNet, IS},
		AllSuperCayleyFamilies()...)
}

// ParseFamily resolves a family from its String() name (e.g. "MS",
// "complete-RIS", "bubble-sort") — the inverse of Family.String, shared by
// the CLI flag parsers and the scgd request decoder. The explicit switch
// (rather than a scan over AllFamilies, which allocates) keeps request
// decoding off the heap; TestParseFamilyRoundTrip pins the two in sync.
func ParseFamily(name string) (Family, error) {
	switch name {
	case "star":
		return Star, nil
	case "rotator":
		return Rotator, nil
	case "pancake":
		return Pancake, nil
	case "bubble-sort":
		return BubbleSort, nil
	case "transposition":
		return TranspositionNet, nil
	case "IS":
		return IS, nil
	case "MS":
		return MS, nil
	case "RS":
		return RS, nil
	case "complete-RS":
		return CompleteRS, nil
	case "MR":
		return MR, nil
	case "RR":
		return RR, nil
	case "complete-RR":
		return CompleteRR, nil
	case "MIS":
		return MIS, nil
	case "RIS":
		return RIS, nil
	case "complete-RIS":
		return CompleteRIS, nil
	default:
		return 0, fmt.Errorf("topology: ParseFamily: unknown family %q", name)
	}
}
