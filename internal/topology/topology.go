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
//
// Each permutation-graph class is one row of the family table (families):
// New builds every instance from its row, and the family names, node
// counts and route bounds are read from it.
package topology

import (
	"fmt"
	"slices"

	"repro/internal/bag"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/perm"
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

// family is one row of the family table: all that sets one network class
// apart from another. A game-routed family gives its ball and box moves
// (§3.3: a nucleus style times a box style, one box and no box moves for
// star, rotator and IS); its links are the game's moves, with the
// selections I_2'..I_{n+1}' after the nucleus block when selections is
// set, and bag.WorstCaseBound of its rules is its route bound. Pancake,
// bubble-sort and transposition, which the game does not route, give their
// links on k symbols, their solver and its closed-form route bound.
type family struct {
	name        string // Family.String, the ParseFamily vocabulary
	short       string // the instance-name prefix, where it differs from name
	superCayley bool

	nucleus    bag.NucleusStyle
	super      bag.SuperStyle
	selections bool

	links func(k int) []gen.Generator
	solve func(sc *RouteScratch, u perm.Perm) ([]gen.Generator, error)
	bound func(k int) int
}

// families is the family table, indexed by Family.
var families = [...]family{
	Star:    {name: "star", nucleus: bag.TranspositionNucleus, super: bag.NoSuper},
	Rotator: {name: "rotator", nucleus: bag.InsertionNucleus, super: bag.NoSuper},
	Pancake: {
		name: "pancake",
		links: func(k int) (gens []gen.Generator) {
			for i := 2; i <= k; i++ {
				gens = append(gens, gen.NewPrefixReversal(i))
			}
			return gens
		},
		solve: (*RouteScratch).solvePancake,
		bound: func(k int) int { return 2*k - 3 },
	},
	BubbleSort: {
		name:  "bubble-sort",
		short: "bubble",
		links: func(k int) (gens []gen.Generator) {
			for i := 1; i < k; i++ {
				gens = append(gens, gen.NewPositionSwap(i, i+1))
			}
			return gens
		},
		solve: (*RouteScratch).solveBubble,
		bound: func(k int) int { return k * (k - 1) / 2 },
	},
	TranspositionNet: {
		name: "transposition",
		links: func(k int) (gens []gen.Generator) {
			for i := 1; i < k; i++ {
				for j := i + 1; j <= k; j++ {
					gens = append(gens, gen.NewPositionSwap(i, j))
				}
			}
			return gens
		},
		solve: (*RouteScratch).solveTranspositionNet,
		bound: func(k int) int { return k - 1 },
	},
	IS:          {name: "IS", nucleus: bag.InsertionNucleus, super: bag.NoSuper, selections: true},
	MS:          {name: "MS", superCayley: true, nucleus: bag.TranspositionNucleus, super: bag.SwapSuper},
	RS:          {name: "RS", superCayley: true, nucleus: bag.TranspositionNucleus, super: bag.RotPairSuper},
	CompleteRS:  {name: "complete-RS", superCayley: true, nucleus: bag.TranspositionNucleus, super: bag.RotCompleteSuper},
	MR:          {name: "MR", superCayley: true, nucleus: bag.InsertionNucleus, super: bag.SwapSuper},
	RR:          {name: "RR", superCayley: true, nucleus: bag.InsertionNucleus, super: bag.RotSingleSuper},
	CompleteRR:  {name: "complete-RR", superCayley: true, nucleus: bag.InsertionNucleus, super: bag.RotCompleteSuper},
	MIS:         {name: "MIS", superCayley: true, nucleus: bag.InsertionNucleus, super: bag.SwapSuper, selections: true},
	RIS:         {name: "RIS", superCayley: true, nucleus: bag.InsertionNucleus, super: bag.RotPairSuper, selections: true},
	CompleteRIS: {name: "complete-RIS", superCayley: true, nucleus: bag.InsertionNucleus, super: bag.RotCompleteSuper, selections: true},
}

// row returns f's row of the family table, or false for an unknown family.
func (f Family) row() (*family, bool) {
	if f < 0 || int(f) >= len(families) {
		return nil, false
	}
	return &families[f], true
}

func (f Family) String() string {
	if row, ok := f.row(); ok {
		return row.name
	}
	return fmt.Sprintf("Family(%d)", int(f))
}

// IsSuperCayley reports whether the family is one of the paper's super
// Cayley graph classes (it has distinct nucleus and super generators).
func (f Family) IsSuperCayley() bool {
	row, ok := f.row()
	return ok && row.superCayley
}

// Network is a concrete instance of one family.
type Network struct {
	family Family
	l, n   int // super Cayley parameters; l = 1, n = k-1 for nucleus-only nets
	graph  *core.Graph
	// rules are the game whose solver routes in this network, and hasRules
	// is set when RouteInto plays it as is: for every family but pancake,
	// bubble-sort and transposition. The §3.3.4 extensions keep their base
	// game in rules and expand its moves.
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

func checkLN(fam Family, l, n int) error {
	if l < 2 || n < 1 {
		return fmt.Errorf("topology: %v(%d,%d): need l >= 2 and n >= 1", fam, l, n)
	}
	return nil
}

// New builds an instance of fam from its row of the family table. For
// nucleus-only families the instance is determined by k = n+1 and l is
// ignored.
func New(fam Family, l, n int) (*Network, error) {
	row, ok := fam.row()
	if !ok {
		return nil, fmt.Errorf("topology: New: unknown family %v", fam)
	}
	var name string
	if row.superCayley {
		if err := checkLN(fam, l, n); err != nil {
			return nil, err
		}
		name = fmt.Sprintf("%s(%d,%d)", row.name, l, n)
	} else {
		l = 1
		short := row.short
		if short == "" {
			short = row.name
		}
		name = fmt.Sprintf("%s(%d)", short, n+1)
		if n < 1 {
			return nil, fmt.Errorf("topology: %s: k must be >= 2", name)
		}
	}
	k := n*l + 1
	if row.links != nil {
		return buildNetwork(fam, name, l, n, k, row.links(k), bag.Rules{}, false)
	}
	rules := bag.Rules{Layout: bag.Layout{L: l, N: n}, Nucleus: row.nucleus, Super: row.super}
	gens := rules.Generators()
	if row.selections {
		for i := 2; i <= n+1; i++ {
			gens = slices.Insert(gens, n+i-2, gen.NewSelection(i))
		}
	}
	return buildNetwork(fam, name, l, n, k, gens, rules, true)
}

// NewStar returns the k-dimensional star graph: undirected Cayley graph with
// transposition generators T_2..T_k.
func NewStar(k int) (*Network, error) { return New(Star, 1, k-1) }

// NewRotator returns the k-dimensional rotator graph (Corbett): directed
// Cayley graph with insertion generators I_2..I_k.
func NewRotator(k int) (*Network, error) { return New(Rotator, 1, k-1) }

// NewPancake returns the k-dimensional pancake graph: undirected Cayley
// graph with prefix-reversal generators F_2..F_k.
func NewPancake(k int) (*Network, error) { return New(Pancake, 1, k-1) }

// NewBubbleSort returns the k-dimensional bubble-sort graph: undirected
// Cayley graph with adjacent transpositions P_{i,i+1}.
func NewBubbleSort(k int) (*Network, error) { return New(BubbleSort, 1, k-1) }

// NewTranspositionNet returns the k-dimensional transposition network:
// undirected Cayley graph with all position swaps P_{i,j}.
func NewTranspositionNet(k int) (*Network, error) { return New(TranspositionNet, 1, k-1) }

// NewIS returns the k-dimensional insertion-selection network (Definition
// 3.10): undirected Cayley graph with insertions I_2..I_k and selections
// I_2'..I_k' (I_2' duplicates I_2, so the degree is 2k-3).
func NewIS(k int) (*Network, error) { return New(IS, 1, k-1) }

// NewMS returns the macro-star network MS(l,n) (§3.1): transposition
// nucleus generators plus swap super generators.
func NewMS(l, n int) (*Network, error) { return New(MS, l, n) }

// NewRS returns the rotation-star network RS(l,n) (Definition 3.5):
// transposition nucleus plus the rotation pair R, R^{-1}.
func NewRS(l, n int) (*Network, error) { return New(RS, l, n) }

// NewCompleteRS returns the complete-rotation-star network (Definition 3.6):
// transposition nucleus plus all rotations R^1..R^{l-1}.
func NewCompleteRS(l, n int) (*Network, error) { return New(CompleteRS, l, n) }

// NewMR returns the macro-rotator network MR(l,n) (Definition 3.7):
// insertion nucleus plus swap super generators (directed).
func NewMR(l, n int) (*Network, error) { return New(MR, l, n) }

// NewRR returns the rotation-rotator network RR(l,n) (Definition 3.8):
// insertion nucleus plus the single rotation R (directed).
func NewRR(l, n int) (*Network, error) { return New(RR, l, n) }

// NewCompleteRR returns the complete-rotation-rotator network (Definition
// 3.9): insertion nucleus plus all rotations (directed).
func NewCompleteRR(l, n int) (*Network, error) { return New(CompleteRR, l, n) }

// NewMIS returns the macro-IS network MIS(l,n) (Definition 3.11):
// insertion+selection nucleus plus swap super generators (undirected).
func NewMIS(l, n int) (*Network, error) { return New(MIS, l, n) }

// NewRIS returns the rotation-IS network RIS(l,n) (Definition 3.12):
// insertion+selection nucleus plus the rotation pair (undirected).
func NewRIS(l, n int) (*Network, error) { return New(RIS, l, n) }

// NewCompleteRIS returns the complete-rotation-IS network (Definition 3.13):
// insertion+selection nucleus plus all rotations (undirected).
func NewCompleteRIS(l, n int) (*Network, error) { return New(CompleteRIS, l, n) }

// AllFamilies lists every family constructible by New, in table order: the
// permutation-graph baselines first, then the super Cayley classes in paper
// order.
func AllFamilies() []Family {
	out := make([]Family, len(families))
	for i := range out {
		out[i] = Family(i)
	}
	return out
}

// AllSuperCayleyFamilies lists the nine super Cayley classes in paper order.
func AllSuperCayleyFamilies() []Family {
	var out []Family
	for _, f := range AllFamilies() {
		if f.IsSuperCayley() {
			out = append(out, f)
		}
	}
	return out
}

// ParseFamily resolves a family from its String() name (e.g. "MS",
// "complete-RIS", "bubble-sort") — the inverse of Family.String, shared by
// the CLI flag parsers and the scgd request decoder. The explicit switch
// decodes a name in 2–4 ns, against 4–21 ns for a scan of the family table
// (go1.24, 2-vCPU guest, -cpu 1); TestParseFamilyRoundTrip keeps the two in
// step.
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
