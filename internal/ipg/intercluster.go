package ipg

import (
	"fmt"

	"repro/internal/gen"
)

// InterclusterProfile measures the §4.3 quantities on an index-permutation
// graph: nucleus links cost 0 intercluster hops, super links cost 1,
// exactly as internal/mcmp does for super Cayley graphs. Because the
// quotient collapses same-color balls, the cluster (nucleus orbit) is much
// smaller relative to the network — the mechanism by which
// super-index-permutation graphs reach optimal intercluster diameters with
// larger physical clusters.
type InterclusterProfile struct {
	ClusterSize             int64
	InterclusterDegree      int
	InterclusterDiameter    int
	AvgInterclusterDistance float64
}

// MeasureIntercluster runs core's 0/1-weighted search from the sorted
// label (rank 0).
func (g *Graph) MeasureIntercluster() (*InterclusterProfile, error) {
	weight := make([]int, len(g.gens))
	di := 0
	for i, gg := range g.gens {
		if gg.Class() == gen.Super {
			weight[i] = 1
			di++
		}
	}
	if di == 0 {
		return nil, fmt.Errorf("ipg: MeasureIntercluster: %s has no super generators", g.name)
	}
	ig, err := g.indexGraph()
	if err != nil {
		return nil, err
	}
	res, err := ig.BFSWeighted(0, weight)
	if err != nil {
		return nil, err
	}
	if res.Reachable != ig.N {
		return nil, fmt.Errorf("ipg: MeasureIntercluster: %s not connected (%d/%d)", g.name, res.Reachable, ig.N)
	}
	return &InterclusterProfile{
		ClusterSize:             res.Histogram[0],
		InterclusterDegree:      di,
		InterclusterDiameter:    res.Eccentricity,
		AvgInterclusterDistance: res.Mean,
	}, nil
}
