// Package metrics implements the cost measures of §4: the universal
// diameter lower bound D_L(N,d) (equation 2), the asymptotic
// diameter-to-lower-bound ratio α (§4.2), the Moore-type average-distance
// lower bound, the degree×diameter cost of Figure 6, and the intercluster
// lower bounds behind Theorem 4.8.
package metrics

import (
	"fmt"
	"math"
)

// DL returns the universal lower bound on the diameter of a static
// undirected interconnection network with N nodes and degree d >= 3
// (equation 2):
//
//	D_L(N,d) = log_{d-1} N + log_{d-1}(1 - 2/d)
//
// The bound follows from Moore counting: at most d(d-1)^{r-1} nodes sit at
// distance r from any node.
func DL(n float64, d int) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("metrics: DL: N=%v must be >= 1", n)
	}
	if d < 3 {
		return 0, fmt.Errorf("metrics: DL: degree %d must be >= 3", d)
	}
	base := math.Log(float64(d - 1))
	return math.Log(n)/base + math.Log(1-2/float64(d))/base, nil
}

// DLDirected returns the universal lower bound on the diameter of a
// directed network with N nodes and out-degree d >= 2: Moore counting
// reaches at most d^r new nodes at distance r, so D >= log_d(N(d-1)+1) - 1
// >= log_d N - 1; we use the exact geometric form.
func DLDirected(n float64, d int) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("metrics: DLDirected: N=%v must be >= 1", n)
	}
	if d < 2 {
		return 0, fmt.Errorf("metrics: DLDirected: out-degree %d must be >= 2", d)
	}
	// 1 + d + d^2 + ... + d^D >= N  =>  D >= log_d(N(d-1)+1) - 1.
	return math.Log(n*float64(d-1)+1)/math.Log(float64(d)) - 1, nil
}

// Alpha returns the diameter-to-lower-bound ratio α = D / D_L(N,d) for a
// network with diameter D, size N, and degree d (§4.2). The paper's Table 1
// reports the N→∞ limit of this quantity.
func Alpha(diameter int, n float64, d int) (float64, error) {
	dl, err := DL(n, d)
	if err != nil {
		return 0, err
	}
	if dl <= 0 {
		return 0, fmt.Errorf("metrics: Alpha: non-positive lower bound %v", dl)
	}
	return float64(diameter) / dl, nil
}

// AvgDistanceLowerBound returns the smallest possible average distance of an
// N-node degree-d undirected graph, obtained by packing nodes as close as
// Moore counting allows: fill distance classes 1, 2, ... with d(d-1)^{r-1}
// nodes until N-1 non-source nodes are placed.
func AvgDistanceLowerBound(n float64, d int) (float64, error) {
	if n < 2 {
		return 0, fmt.Errorf("metrics: AvgDistanceLowerBound: N=%v must be >= 2", n)
	}
	if d < 2 {
		return 0, fmt.Errorf("metrics: AvgDistanceLowerBound: degree %d must be >= 2", d)
	}
	remaining := n - 1
	layer := float64(d)
	sum := 0.0
	r := 1
	for remaining > 0 {
		take := math.Min(layer, remaining)
		sum += take * float64(r)
		remaining -= take
		layer *= float64(d - 1)
		r++
		if r > 1<<20 {
			return 0, fmt.Errorf("metrics: AvgDistanceLowerBound: did not converge")
		}
	}
	return sum / (n - 1), nil
}

// AvgDistanceLowerBoundDirected is the directed analogue of
// AvgDistanceLowerBound: distance-r layers hold up to d^r nodes.
func AvgDistanceLowerBoundDirected(n float64, d int) (float64, error) {
	if n < 2 {
		return 0, fmt.Errorf("metrics: AvgDistanceLowerBoundDirected: N=%v must be >= 2", n)
	}
	if d < 2 {
		return 0, fmt.Errorf("metrics: AvgDistanceLowerBoundDirected: out-degree %d must be >= 2", d)
	}
	remaining := n - 1
	layer := float64(d)
	sum := 0.0
	r := 1
	for remaining > 0 {
		take := math.Min(layer, remaining)
		sum += take * float64(r)
		remaining -= take
		layer *= float64(d)
		r++
		if r > 1<<20 {
			return 0, fmt.Errorf("metrics: AvgDistanceLowerBoundDirected: did not converge")
		}
	}
	return sum / (n - 1), nil
}

// MooreBounds are the Moore-type lower bounds on one network's diameter
// (D_L) and average distance, each taken in the network's direction. A
// bound the instance is too small for (undirected degree below 3 for D_L,
// degree below 2 or fewer than 2 nodes for the average) reads 0.
type MooreBounds struct {
	DL      float64
	AvgDist float64
}

// LowerBounds returns the bounds of an N-node network of degree d: for an
// undirected one, D_L of equation 2 and AvgDistanceLowerBound; for a
// directed one (d its out-degree), DLDirected and
// AvgDistanceLowerBoundDirected. Every surface that reports D_L, α or the
// average-distance ratio of a network (netprops, scgd's /v1/metrics, the
// figures tables) takes them from here, so none disagrees with another.
func LowerBounds(n float64, d int, undirected bool) MooreBounds {
	dlFn, avgFn := DL, AvgDistanceLowerBound
	if !undirected {
		dlFn, avgFn = DLDirected, AvgDistanceLowerBoundDirected
	}
	var b MooreBounds
	if dl, err := dlFn(n, d); err == nil {
		b.DL = dl
	}
	if avg, err := avgFn(n, d); err == nil {
		b.AvgDist = avg
	}
	return b
}

// Alpha returns diameter/D_L, or 0 when D_L is not positive.
func (b MooreBounds) Alpha(diameter int) float64 {
	if b.DL <= 0 {
		return 0
	}
	return float64(diameter) / b.DL
}

// AvgRatio returns avg over the average-distance bound (Theorem 4.7's
// ratio), or 0 when the bound is not positive.
func (b MooreBounds) AvgRatio(avg float64) float64 {
	if b.AvgDist <= 0 {
		return 0
	}
	return avg / b.AvgDist
}

// DegreeDiameterCost returns the degree×diameter product plotted in
// Figure 6.
func DegreeDiameterCost(degree, diameter int) int { return degree * diameter }

// InterclusterDL returns a lower bound on the intercluster diameter of an
// N-node network packaged as clusters of M nodes with intercluster degree
// d_i (§4.3). A message reaches its own cluster, M nodes, with no
// intercluster hop, and each hop multiplies what it can newly reach by at
// most M·d_i: layer r holds at most M·(M·d_i)^r nodes, so within r hops
// it reaches at most M·((M·d_i)^{r+1} − 1)/(M·d_i − 1). The bound is the
// least real r for which that reaches N,
//
//	D_{L,inter} = log(1 + N·(M·d_i − 1)/M) / log(M·d_i) − 1.
func InterclusterDL(n float64, m float64, di int) (float64, error) {
	if n < 2 || m < 1 || di < 1 {
		return 0, fmt.Errorf("metrics: InterclusterDL: invalid arguments N=%v M=%v di=%d", n, m, di)
	}
	if m >= n {
		return 0, nil
	}
	b := m * float64(di)
	if b <= 1 {
		// M·d_i = 1: a single chain of clusters; bound is N/M - 1 hops.
		return n/m - 1, nil
	}
	return math.Log(1+n*(b-1)/m)/math.Log(b) - 1, nil
}

// InterclusterAvgLowerBound returns the least possible average
// intercluster distance over all node pairs: it packs the other N − 1
// nodes greedily, M − 1 cluster-mates at distance 0 and up to M·(M·d_i)^r
// nodes at distance r >= 1, the layer sizes InterclusterDL counts.
func InterclusterAvgLowerBound(n float64, m float64, di int) (float64, error) {
	if n < 2 || m < 1 || di < 1 {
		return 0, fmt.Errorf("metrics: InterclusterAvgLowerBound: invalid arguments")
	}
	if m >= n {
		return 0, nil
	}
	b := m * float64(di)
	if b <= 1 {
		// Chain of clusters: M nodes at each distance r = 1..N/M-1.
		clusters := n / m
		sum := 0.0
		for r := 1.0; r < clusters; r++ {
			sum += r * m
		}
		return sum / (n - 1), nil
	}
	remaining := n - m
	sum := 0.0
	layer := m
	for r := 1; remaining > 0; r++ {
		if r > 1<<20 {
			return 0, fmt.Errorf("metrics: InterclusterAvgLowerBound: did not converge")
		}
		layer *= b
		take := math.Min(layer, remaining)
		sum += take * float64(r)
		remaining -= take
	}
	return sum / (n - 1), nil
}

// BisectionLowerBound returns the Theorem 4.9 lower bound on bisection
// bandwidth:
//
//	BB >= w·N / (4·D̄_inter)
//
// where w is the average aggregate off-chip bandwidth per node and D̄_inter
// the average intercluster distance with one nucleus per chip.
func BisectionLowerBound(w float64, n float64, avgInter float64) (float64, error) {
	if w <= 0 || n < 2 || avgInter <= 0 {
		return 0, fmt.Errorf("metrics: BisectionLowerBound: invalid arguments w=%v N=%v D̄=%v", w, n, avgInter)
	}
	return w * n / (4 * avgInter), nil
}
