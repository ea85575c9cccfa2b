package perm

import (
	"fmt"
	"math/bits"
)

// MaxRankK is the largest k for which ranking fits comfortably in an int64
// index table (20! < 2^63). BFS over an explicit graph is practical up to
// roughly k = 10 (10! = 3,628,800 states) on one core; the ranking itself is
// exact up to MaxRankK.
const MaxRankK = 20

var factorials [MaxRankK + 1]int64

func init() {
	factorials[0] = 1
	for i := 1; i <= MaxRankK; i++ {
		factorials[i] = factorials[i-1] * int64(i)
	}
}

// Factorial returns k! as an int64. It panics if k is outside 0..MaxRankK.
func Factorial(k int) int64 {
	if k < 0 || k > MaxRankK {
		panic(fmt.Sprintf("perm: Factorial(%d): out of range 0..%d", k, MaxRankK))
	}
	return factorials[k]
}

// Rank returns the lexicographic rank of p in 0..k!-1 using the Lehmer
// code. Rank(Identity(k)) == 0. The rank indexes the k! states of a
// ball-arrangement game, letting breadth-first search store distances in a
// flat array instead of a hash map. A 64-bit seen-symbol bitmask and a
// popcount give each Lehmer digit in O(1), for O(k) in all with no scratch
// state; the tests hold it to the O(k²) Lehmer definition.
//
//scglint:hotpath popcount rank kernel: called once per neighbor-table column entry and per warm route request
func (p Perm) Rank() int64 {
	k := len(p)
	if k > MaxRankK {
		panic(fmt.Sprintf("perm: Rank: k=%d exceeds MaxRankK=%d", k, MaxRankK))
	}
	var mask uint64
	var rank int64
	for i := 0; i < k; i++ {
		v := uint(p[i] - 1)
		// Symbols smaller than p[i] and already seen to the left are the
		// ones set in mask below bit v; the Lehmer digit is the rest.
		smaller := int64(v) - int64(bits.OnesCount64(mask&(1<<v-1)))
		rank += smaller * factorials[k-1-i]
		mask |= 1 << v
	}
	return rank
}

// Unrank reconstructs the permutation of k symbols with the given
// lexicographic rank. It panics if rank is outside 0..k!-1.
func Unrank(k int, rank int64) Perm {
	if k < 1 || k > MaxRankK {
		panic(fmt.Sprintf("perm: Unrank: k=%d out of range 1..%d", k, MaxRankK))
	}
	if rank < 0 || rank >= factorials[k] {
		panic(fmt.Sprintf("perm: Unrank: rank %d out of range 0..%d", rank, factorials[k]-1))
	}
	p := make(Perm, k)
	UnrankInto(k, rank, p, make([]int, k))
	return p
}

// UnrankInto is an allocation-light variant of Unrank for BFS hot loops; it
// fills dst (length k) and uses scratch (length k) as working storage.
//
//scglint:hotpath frontier-node decode: called once per expanded node in BFS hot loops
func UnrankInto(k int, rank int64, dst Perm, scratch []int) {
	for i := 0; i < k; i++ {
		scratch[i] = i + 1
	}
	avail := scratch[:k]
	for i := 0; i < k; i++ {
		f := factorials[k-1-i]
		idx := int(rank / f)
		rank %= f
		dst[i] = avail[idx]
		copy(avail[idx:], avail[idx+1:])
		avail = avail[:len(avail)-1]
	}
}
