package core

import "repro/internal/perm"

// oracleBFS is the reference the engine is tested against: a plain FIFO
// queue over Graph.Neighbors with int32 distances. It shares nothing with
// the engine but perm's ranking. The result is laid out the way the engine
// lays it out (a compact table unless the eccentricity reaches
// u8DistLimit), so tests can compare the two with reflect.DeepEqual.
func oracleBFS(g *Graph, src perm.Perm) *BFSResult {
	k := g.K()
	dist := make([]int32, perm.Factorial(k))
	for i := range dist {
		dist[i] = -1
	}
	s := src.Rank()
	dist[s] = 0
	queue := []int64{s}
	hist := []int64{1}
	var sum int64
	for head := 0; head < len(queue); head++ {
		d := dist[queue[head]] + 1
		for _, v := range g.Neighbors(perm.Unrank(k, queue[head])) {
			r := v.Rank()
			if dist[r] >= 0 {
				continue
			}
			dist[r] = d
			if int(d) == len(hist) {
				hist = append(hist, 0)
			}
			hist[d]++
			sum += int64(d)
			queue = append(queue, r)
		}
	}
	res := &BFSResult{Source: s, Reachable: int64(len(queue)), Eccentricity: len(hist) - 1, Histogram: hist}
	if len(queue) > 1 {
		res.Mean = float64(sum) / float64(len(queue)-1)
	}
	if int32(res.Eccentricity) >= u8DistLimit {
		res.Dist = NewDistTableWide(dist)
		return res
	}
	d8 := make([]uint8, len(dist))
	for i, d := range dist {
		d8[i] = uint8(d + 1)
	}
	res.Dist = NewDistTableCompact(d8)
	return res
}
