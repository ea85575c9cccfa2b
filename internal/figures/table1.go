package figures

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/topology"
)

// Table1Row is one row of Table 1: the asymptotic diameter-to-lower-bound
// ratio α = lim D/D_L(N,d) of a network family, for balanced super Cayley
// graphs (l = Θ(n)) and the reference topologies.
type Table1Row struct {
	// Network is the family name.
	Network string
	// AlphaFormula is the paper's asymptotic statement.
	AlphaFormula string
	// AlphaLimit is the numeric limit; +Inf when α diverges (tori,
	// hypercubes).
	AlphaLimit float64
	// MeasuredAlpha is D_exact / D_L at the largest exhaustively measured
	// balanced instance (NaN when no instance fits in memory).
	MeasuredAlpha float64
	// MeasuredAt names the measured instance.
	MeasuredAt string
}

// Table1 reproduces the paper's Table 1 (§4.2). The asymptotic column
// restates Theorems 4.5–4.6 plus the classical star/hypercube/torus results;
// the measured column is computed here by exact BFS on the largest balanced
// instance with k <= maxK (the committed results/ use 10; smaller values
// speed up tests).
func Table1(maxK int) ([]Table1Row, error) {
	rows := []Table1Row{
		{Network: "star", AlphaFormula: "1.5 + o(1)", AlphaLimit: 1.5},
		{Network: "MS", AlphaFormula: "1.25 + o(1) (balanced)", AlphaLimit: 1.25},
		{Network: "complete-RS", AlphaFormula: "1.25 + o(1) (balanced)", AlphaLimit: 1.25},
		{Network: "MR", AlphaFormula: "1 + o(1) (balanced)", AlphaLimit: 1},
		{Network: "MIS", AlphaFormula: "1 + o(1) (balanced)", AlphaLimit: 1},
		{Network: "complete-RR", AlphaFormula: "1 + o(1) (balanced)", AlphaLimit: 1},
		{Network: "complete-RIS", AlphaFormula: "1 + o(1) (balanced)", AlphaLimit: 1},
		{Network: "hypercube", AlphaFormula: "Θ(log log N) → ∞", AlphaLimit: math.Inf(1)},
		{Network: "2-D torus", AlphaFormula: "Θ(√N / log N) → ∞", AlphaLimit: math.Inf(1)},
		{Network: "3-D torus", AlphaFormula: "Θ(N^{1/3} / log N) → ∞", AlphaLimit: math.Inf(1)},
	}
	// Each row's measurement is an independent exact-BFS instance; run them
	// on the worker pool and keep the fixed row order.
	if _, err := pool.Map(len(rows), 0, func(i int) (struct{}, error) {
		return struct{}{}, measureRow(&rows[i], maxK)
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

func measureRow(row *Table1Row, maxK int) error {
	row.MeasuredAlpha = math.NaN()
	switch row.Network {
	case "star":
		k := maxK
		if k < 3 {
			return nil
		}
		nw, err := topology.NewStar(k)
		if err != nil {
			return err
		}
		return fillMeasured(row, nw)
	case "MS", "complete-RS", "MR", "MIS", "complete-RR", "complete-RIS":
		fam, err := familyByName(row.Network)
		if err != nil {
			return err
		}
		// Largest balanced (l as close to n as possible) instance with
		// k = nl+1 <= maxK.
		bestL, bestN := 0, 0
		for l := 2; l <= maxK; l++ {
			for n := 1; n*l+1 <= maxK; n++ {
				if abs(l-n) <= 1 && n*l > bestL*bestN {
					bestL, bestN = l, n
				}
			}
		}
		if bestL == 0 {
			return nil
		}
		nw, err := topology.New(fam, bestL, bestN)
		if err != nil {
			return err
		}
		return fillMeasured(row, nw)
	case "hypercube":
		d := 10
		b, err := topology.NewHypercube(d)
		if err != nil {
			return err
		}
		a, err := metrics.Alpha(b.Diameter, float64(b.Nodes), b.Degree)
		if err != nil {
			return err
		}
		row.MeasuredAlpha, row.MeasuredAt = a, b.Name
		return nil
	case "2-D torus":
		b, err := topology.NewTorus2D(32)
		if err != nil {
			return err
		}
		a, err := metrics.Alpha(b.Diameter, float64(b.Nodes), b.Degree)
		if err != nil {
			return err
		}
		row.MeasuredAlpha, row.MeasuredAt = a, b.Name
		return nil
	case "3-D torus":
		b, err := topology.NewTorus3D(10)
		if err != nil {
			return err
		}
		a, err := metrics.Alpha(b.Diameter, float64(b.Nodes), b.Degree)
		if err != nil {
			return err
		}
		row.MeasuredAlpha, row.MeasuredAt = a, b.Name
		return nil
	}
	return nil
}

func fillMeasured(row *Table1Row, nw *topology.Network) error {
	d, err := nw.Graph().Diameter()
	if err != nil {
		return err
	}
	// Directed networks are measured against the directed Moore bound.
	lb := metrics.LowerBounds(float64(nw.Nodes()), nw.Degree(), nw.Undirected())
	if lb.DL <= 0 {
		return nil // too small for the bound
	}
	row.MeasuredAlpha = lb.Alpha(d)
	row.MeasuredAt = nw.Name()
	return nil
}

func familyByName(name string) (topology.Family, error) {
	f, err := topology.ParseFamily(name)
	if err != nil {
		return 0, fmt.Errorf("figures: unknown family %q", name)
	}
	return f, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// RenderTable1 renders Table 1 as aligned text.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	title := "Table 1: asymptotic diameter to lower-bound ratios"
	fmt.Fprintf(&b, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(&b, "%-14s %-26s %8s %10s  %s\n", "network", "asymptotic α", "limit", "measured", "at")
	for _, r := range rows {
		limit := fmt.Sprintf("%.2f", r.AlphaLimit)
		if math.IsInf(r.AlphaLimit, 1) {
			limit = "∞"
		}
		measured := "-"
		if !math.IsNaN(r.MeasuredAlpha) {
			measured = fmt.Sprintf("%.3f", r.MeasuredAlpha)
		}
		fmt.Fprintf(&b, "%-14s %-26s %8s %10s  %s\n", r.Network, r.AlphaFormula, limit, measured, r.MeasuredAt)
	}
	return b.String()
}
