package core

import (
	"fmt"
	"io"

	"repro/internal/perm"
)

// WriteDOT emits the graph in Graphviz DOT format for visual inspection of
// small instances. Undirected graphs are emitted once per edge pair; each
// edge is labeled with the generator that induces it. Instances above
// maxNodes (default guard 5040) are refused — DOT output beyond that is
// unreadable anyway.
func (g *Graph) WriteDOT(w io.Writer, maxNodes int64) error {
	if maxNodes <= 0 {
		maxNodes = 5040
	}
	n := g.Order()
	if n > maxNodes {
		return fmt.Errorf("core: WriteDOT: %d nodes exceeds limit %d", n, maxNodes)
	}
	tbl, err := g.EnsureNeighborTable(0)
	if err != nil {
		return err
	}
	set := g.GeneratorSet()
	kind := "digraph"
	edge := "->"
	if g.undirected {
		kind = "graph"
		edge = "--"
	}
	if _, err := fmt.Fprintf(w, "%s %q {\n  node [shape=circle fontsize=10];\n", kind, g.name); err != nil {
		return err
	}
	cur := perm.Identity(g.K()) // rank r; NextPermutation steps in rank order
	for r := int64(0); r < n; r, _ = r+1, cur.NextPermutation() {
		if _, err := fmt.Fprintf(w, "  n%d [label=%q];\n", r, cur.String()); err != nil {
			return err
		}
		for gi := range g.genPerms {
			nr := tbl.At(r, gi)
			// For undirected graphs emit each edge once (from the smaller
			// endpoint, or self-inverse tie-break on generator index).
			if g.undirected && nr < r {
				continue
			}
			if g.undirected && nr == r {
				continue // fixed point (cannot happen for valid generators)
			}
			if _, err := fmt.Fprintf(w, "  n%d %s n%d [label=%q];\n", r, edge, nr, set.At(gi).Name()); err != nil {
				return err
			}
		}
	}
	_, err = fmt.Fprintln(w, "}")
	return err
}
