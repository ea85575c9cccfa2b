package figures

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/topology"
)

// CompareRow is one row of the §4.1-style comparison table: every family at
// one (l,n), with exact measurements where the instance is enumerable.
type CompareRow struct {
	Network       string
	Nodes         int64
	Degree        int
	DiameterBound int
	ExactDiameter int     // -1 when not measured
	ExactAvgDist  float64 // NaN-free: 0 when not measured
	DL            float64 // diameter lower bound at (N, degree), in the network's direction
	Alpha         float64 // ExactDiameter / DL; 0 when not measured
	Cost          int     // degree × (exact diameter if known, else bound)
}

// CompareTable builds the comparison for all nine super Cayley families
// plus the star graph of the same k. When exact is true (k <= 10) the
// diameter and average distance come from one BFS per instance
// (ExactProfile); the independent instances run concurrently and the rows
// keep the fixed order.
func CompareTable(l, n int, exact bool) ([]CompareRow, error) {
	k := l*n + 1
	nws, err := instancesWithStar(k, l, n)
	if err != nil {
		return nil, err
	}
	return pool.Map(len(nws), 0, func(i int) (CompareRow, error) {
		return compareRow(nws[i], exact)
	})
}

func compareRow(nw *topology.Network, exact bool) (CompareRow, error) {
	row := CompareRow{
		Network:       nw.Name(),
		Nodes:         nw.Nodes(),
		Degree:        nw.Degree(),
		DiameterBound: nw.DiameterUpperBound(),
		ExactDiameter: -1,
	}
	lb := metrics.LowerBounds(float64(nw.Nodes()), nw.Degree(), nw.Undirected())
	if lb.DL > 0 {
		row.DL = lb.DL
	}
	if exact {
		prof, err := nw.Graph().ExactProfile()
		if err != nil {
			return CompareRow{}, fmt.Errorf("%s: %v", nw.Name(), err)
		}
		row.ExactDiameter = prof.Eccentricity
		row.ExactAvgDist = prof.Mean
		row.Alpha = lb.Alpha(prof.Eccentricity)
		row.Cost = nw.Degree() * prof.Eccentricity
	} else {
		row.Cost = nw.Degree() * row.DiameterBound
	}
	return row, nil
}

// RenderCompareTable renders the comparison as aligned text.
func RenderCompareTable(rows []CompareRow) string {
	var b strings.Builder
	title := "Network comparison (§4.1)"
	fmt.Fprintf(&b, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(&b, "%-20s %8s %6s %7s %7s %9s %7s %6s %6s\n",
		"network", "N", "degree", "D(alg)", "D(BFS)", "avg dist", "D_L", "alpha", "cost")
	for _, r := range rows {
		exD, avg, alpha := "-", "-", "-"
		if r.ExactDiameter >= 0 {
			exD = fmt.Sprintf("%d", r.ExactDiameter)
			avg = fmt.Sprintf("%.3f", r.ExactAvgDist)
			if r.Alpha > 0 {
				alpha = fmt.Sprintf("%.3f", r.Alpha)
			}
		}
		dl := "-"
		if r.DL > 0 {
			dl = fmt.Sprintf("%.2f", r.DL)
		}
		fmt.Fprintf(&b, "%-20s %8d %6d %7d %7s %9s %7s %6s %6d\n",
			r.Network, r.Nodes, r.Degree, r.DiameterBound, exD, avg, dl, alpha, r.Cost)
	}
	return b.String()
}
