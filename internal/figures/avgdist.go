package figures

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/topology"
)

// AvgDistanceRow records the Theorem 4.7 measurement for one instance: the
// exact average distance, the Moore-packing lower bound at the same size
// and degree, and their ratio (which the theorem says tends to 1 for
// balanced super Cayley graphs).
type AvgDistanceRow struct {
	Network    string
	Nodes      int64
	Degree     int
	AvgDist    float64
	LowerBound float64
	Ratio      float64
	// Throughput is the pin-limited per-node throughput P/D̄ at unit pin
	// budget (§4.2).
	Throughput float64
}

// AvgDistanceTable measures the exact average distance of every super
// Cayley family at (l,n) plus the star graph of the same k, and reports the
// Theorem 4.7 ratios. All instances must satisfy k <= 10. The independent
// instances are measured concurrently and gathered in the fixed order.
func AvgDistanceTable(l, n int) ([]AvgDistanceRow, error) {
	k := l*n + 1
	nws, err := instancesWithStar(k, l, n)
	if err != nil {
		return nil, err
	}
	return pool.Map(len(nws), 0, func(i int) (AvgDistanceRow, error) {
		return avgDistanceRow(nws[i])
	})
}

func avgDistanceRow(nw *topology.Network) (AvgDistanceRow, error) {
	avg, err := nw.Graph().AverageDistance()
	if err != nil {
		return AvgDistanceRow{}, fmt.Errorf("%s: %v", nw.Name(), err)
	}
	// Directed graphs pack distance layers with branching d rather than
	// d-1; the bounds follow the network's direction.
	lb := metrics.LowerBounds(float64(nw.Nodes()), nw.Degree(), nw.Undirected())
	if lb.AvgDist <= 0 {
		return AvgDistanceRow{}, fmt.Errorf("%s: no average-distance bound at N=%d, degree %d", nw.Name(), nw.Nodes(), nw.Degree())
	}
	th, err := metrics.PinLimitedThroughput(1, avg)
	if err != nil {
		return AvgDistanceRow{}, err
	}
	return AvgDistanceRow{
		Network:    nw.Name(),
		Nodes:      nw.Nodes(),
		Degree:     nw.Degree(),
		AvgDist:    avg,
		LowerBound: lb.AvgDist,
		Ratio:      lb.AvgRatio(avg),
		Throughput: th,
	}, nil
}

// instancesWithStar builds the fixed instance order shared by the §4
// tables: the star graph of dimension k, then every super Cayley family at
// (l, n) in paper order.
func instancesWithStar(k, l, n int) ([]*topology.Network, error) {
	star, err := topology.NewStar(k)
	if err != nil {
		return nil, err
	}
	nws := []*topology.Network{star}
	for _, fam := range topology.AllSuperCayleyFamilies() {
		nw, err := topology.New(fam, l, n)
		if err != nil {
			return nil, err
		}
		nws = append(nws, nw)
	}
	return nws, nil
}

// RenderAvgDistanceTable renders the Theorem 4.7 table as aligned text.
func RenderAvgDistanceTable(rows []AvgDistanceRow) string {
	var b strings.Builder
	title := "Theorem 4.7: average distance vs Moore lower bound (exact BFS)"
	fmt.Fprintf(&b, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(&b, "%-20s %8s %7s %10s %10s %8s %11s\n",
		"network", "N", "degree", "avg dist", "Moore LB", "ratio", "throughput")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %8d %7d %10.4f %10.4f %8.4f %11.5f\n",
			r.Network, r.Nodes, r.Degree, r.AvgDist, r.LowerBound, r.Ratio, r.Throughput)
	}
	return b.String()
}
