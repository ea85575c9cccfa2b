// Command bagsolve solves a ball-arrangement game instance and prints the
// move sequence — the routing path in the corresponding super Cayley graph.
//
// Examples:
//
//	bagsolve -l 3 -n 2 -state 5342671 -balls insertion -boxes rot-complete
//	bagsolve -l 3 -n 2 -state 5342671 -balls transposition -boxes swap -trace
//	bagsolve -star -state 51432
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bag"
	"repro/internal/gen"
	"repro/internal/perm"
	"repro/internal/version"
)

func main() {
	var (
		l           = flag.Int("l", 3, "number of boxes")
		n           = flag.Int("n", 2, "balls per box")
		state       = flag.String("state", "", "initial configuration, e.g. 5342671 (random if empty)")
		seed        = flag.Uint64("seed", 1, "seed for a random initial configuration")
		balls       = flag.String("balls", "transposition", "ball moves: transposition | insertion")
		boxes       = flag.String("boxes", "swap", "box moves: swap | rot-single | rot-pair | rot-complete | none")
		offset      = flag.Int("offset", -1, "fixed box-color offset (rotation styles); -1 searches all")
		star        = flag.Bool("star", false, "solve the k-star game (T2..Tk): one box of k-1 balls, transposition balls, no box moves")
		optimal     = flag.Bool("optimal", false, "find a provably shortest solution (IDA*; exponential in distance)")
		trace       = flag.Bool("trace", false, "print every intermediate configuration")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("bagsolve"))
		return
	}

	rules := bag.Rules{Nucleus: nucleusOf(*balls), Super: superOf(*boxes)}
	if *star {
		// The k-star game is the one-box game (1, k-1) with transposition
		// balls and no box moves.
		*l, *n = 1, kFromState(*state, 5)-1
		rules.Nucleus, rules.Super = bag.TranspositionNucleus, bag.NoSuper
	}
	ly, err := bag.NewLayout(*l, *n)
	fail(err)
	rules.Layout = ly
	fail(rules.Validate())
	u := mustState(*state, *seed, ly.K())

	var moves []gen.Generator
	switch {
	case *optimal:
		moves, err = bag.SolveOptimal(rules, u, 0)
	case *offset >= 0:
		moves, err = bag.SolveWithOffset(rules, u, *offset)
	default:
		moves, err = bag.Solve(rules, u)
	}
	fail(err)
	fail(bag.Verify(rules, u, moves))
	fmt.Printf("game:   %s\n", rules)
	report(u, moves, *trace)
	fmt.Printf("bound:  %d (solver worst case)\n", bag.WorstCaseBound(rules))
}

// moveList aliases a generator sequence for readability.
type moveList = []gen.Generator

func nucleusOf(s string) bag.NucleusStyle {
	switch s {
	case "transposition":
		return bag.TranspositionNucleus
	case "insertion":
		return bag.InsertionNucleus
	default:
		fail(fmt.Errorf("unknown ball style %q", s))
		return 0
	}
}

func superOf(s string) bag.SuperStyle {
	switch s {
	case "swap":
		return bag.SwapSuper
	case "rot-single":
		return bag.RotSingleSuper
	case "rot-pair":
		return bag.RotPairSuper
	case "rot-complete":
		return bag.RotCompleteSuper
	case "none":
		return bag.NoSuper
	default:
		fail(fmt.Errorf("unknown box style %q", s))
		return 0
	}
}

func kFromState(state string, fallback int) int {
	if state == "" {
		return fallback
	}
	p, err := perm.Parse(state)
	fail(err)
	return p.K()
}

func mustState(state string, seed uint64, k int) perm.Perm {
	if state == "" {
		return perm.Random(k, perm.NewRNG(seed))
	}
	p, err := perm.Parse(state)
	fail(err)
	if p.K() != k {
		fail(fmt.Errorf("state %q has %d balls, game wants %d", state, p.K(), k))
	}
	return p
}

func report(u perm.Perm, moves moveList, trace bool) {
	fmt.Printf("source: %s\n", u)
	fmt.Printf("target: %s\n", perm.Identity(u.K()))
	fmt.Printf("moves:  %d: %v\n", len(moves), bag.MoveNames(moves))
	if trace {
		cfg := u.Clone()
		fmt.Printf("        %s\n", cfg)
		for _, m := range moves {
			m.Apply(cfg)
			fmt.Printf("  %-4s  %s\n", m.Name(), cfg)
		}
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bagsolve:", err)
		os.Exit(1)
	}
}
