package core

import (
	"reflect"
	"testing"

	"repro/internal/perm"
)

// oracleBFS is the reference the engine is tested against: a plain FIFO
// queue over Graph.Neighbors with int32 distances. It shares nothing with
// the engine but perm's ranking. It skips the links BFSWithout's cut masks
// name (nil: none): link j of state r when bit r&63 of cut[j][r>>6] is set.
// The result is laid out the way the engine lays it out (a compact table
// unless the eccentricity reaches u8DistLimit), so tests can compare the
// two with reflect.DeepEqual.
func oracleBFS(g *Graph, src perm.Perm, cut [][]uint64) *BFSResult {
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
		u := queue[head]
		d := dist[u] + 1
		for j, v := range g.Neighbors(perm.Unrank(k, u)) {
			if cut != nil && cut[j] != nil && cut[j][u>>6]>>(u&63)&1 != 0 {
				continue
			}
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

// oracleWeighted is the reference for the engine's 0/1 searches: a deque
// BFS over tbl from srcRank, where column j costs weight[j] ∈ {0, 1}.
// Zero-weight edges push to the deque's front and unit-weight edges to its
// back, so states settle in nondecreasing distance. It reads neighbors
// through At, one edge at a time, and keeps int32 distances.
func oracleWeighted(tbl *NeighborTable, srcRank int64, weight []int) *BFSResult {
	n := tbl.n
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[srcRank] = 0
	deque := newIntDeque(1024)
	deque.pushFront(srcRank)
	settled := make([]bool, n)
	var maxD int32
	for deque.len() > 0 {
		r := deque.popFront()
		if settled[r] {
			continue
		}
		settled[r] = true
		d := dist[r]
		if d > maxD {
			maxD = d
		}
		for i := range weight {
			nr := tbl.At(r, i)
			nd := d + int32(weight[i])
			if dist[nr] < 0 || nd < dist[nr] {
				dist[nr] = nd
				if weight[i] == 0 {
					deque.pushFront(nr)
				} else {
					deque.pushBack(nr)
				}
			}
		}
	}
	hist := make([]int64, maxD+1)
	reachable := int64(0)
	for _, d := range dist {
		if d >= 0 {
			hist[d]++
			reachable++
		}
	}
	return &BFSResult{
		Source:       srcRank,
		Reachable:    reachable,
		Eccentricity: int(maxD),
		Histogram:    hist,
		Mean:         meanFromHistogram(hist),
		Dist:         NewDistTableWide(dist),
	}
}

// intDeque is a growable double-ended queue of int64 node ranks.
type intDeque struct {
	buf        []int64
	head, size int
}

func newIntDeque(capacity int) *intDeque {
	if capacity < 4 {
		capacity = 4
	}
	return &intDeque{buf: make([]int64, capacity)}
}

func (d *intDeque) len() int { return d.size }

func (d *intDeque) grow() {
	nb := make([]int64, 2*len(d.buf))
	for i := 0; i < d.size; i++ {
		nb[i] = d.buf[(d.head+i)%len(d.buf)]
	}
	d.buf = nb
	d.head = 0
}

func (d *intDeque) pushFront(v int64) {
	if d.size == len(d.buf) {
		d.grow()
	}
	d.head = (d.head - 1 + len(d.buf)) % len(d.buf)
	d.buf[d.head] = v
	d.size++
}

func (d *intDeque) pushBack(v int64) {
	if d.size == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.size)%len(d.buf)] = v
	d.size++
}

func (d *intDeque) popFront() int64 {
	if d.size == 0 {
		panic("core: popFront: empty deque")
	}
	v := d.buf[d.head]
	d.head = (d.head + 1) % len(d.buf)
	d.size--
	return v
}

// sameWeighted fails t unless got matches the 0/1 oracle want on
// everything a 0/1 search reports: reachable count, eccentricity,
// histogram, mean and the distance of every rank. The backings may
// differ: the oracle keeps int32 distances, the engine one byte per state
// unless a search widens.
func sameWeighted(t testing.TB, what string, got, want *BFSResult) {
	t.Helper()
	if got.Source != want.Source || got.Reachable != want.Reachable || got.Eccentricity != want.Eccentricity ||
		!reflect.DeepEqual(got.Histogram, want.Histogram) || got.Mean != want.Mean {
		t.Fatalf("%s: reach=%d ecc=%d hist=%v mean=%v, oracle reach=%d ecc=%d hist=%v mean=%v", what,
			got.Reachable, got.Eccentricity, got.Histogram, got.Mean,
			want.Reachable, want.Eccentricity, want.Histogram, want.Mean)
	}
	if got.Dist.Len() != want.Dist.Len() {
		t.Fatalf("%s: distance table covers %d states, oracle %d", what, got.Dist.Len(), want.Dist.Len())
	}
	for r := int64(0); r < int64(want.Dist.Len()); r++ {
		if g, w := got.Dist.At(r), want.Dist.At(r); g != w {
			t.Fatalf("%s: Dist.At(%d) = %d, oracle %d", what, r, g, w)
		}
	}
}
