package obs

import (
	"fmt"
	"math"
	"math/bits"
)

// histBuckets bounds the bucket array: values up to MaxInt64 land in bucket
// 4*60 + 7 = 247.
const histBuckets = 248

// Histogram is a log-bucketed histogram of non-negative int64 observations
// (latencies in steps, per-link traversal counts). Values 0..3 get exact
// buckets; beyond that each power-of-two octave is split into 4 linear
// sub-buckets, so any bucket's relative width is at most 25%. Observation is
// O(1) (a bit-length and an increment) and the whole struct is a few KB, so
// engines can afford one histogram per run even with tracing disabled.
//
// The zero value is ready to use.
type Histogram struct {
	counts [histBuckets]int64
	count  int64
	sum    int64
	min    int64
	max    int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a value to its bucket. Negative values clamp to 0.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < 4 {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 3
	return 4*exp + int(v>>uint(exp))
}

// BucketBounds returns the half-open value range [lo, hi) covered by bucket
// idx.
func BucketBounds(idx int) (lo, hi int64) {
	if idx < 4 {
		return int64(idx), int64(idx) + 1
	}
	exp := uint(idx/4 - 1)
	lo = int64(4+idx%4) << exp
	hi = lo + int64(1)<<exp
	if hi < lo { // the final bucket's bound would overflow int64
		hi = math.MaxInt64
	}
	return lo, hi
}

// Observe records one value. Negative values are clamped to 0.
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records n occurrences of value v in O(1). Negative values clamp
// to 0; n <= 0 is ignored.
func (h *Histogram) ObserveN(v, n int64) {
	if n <= 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[bucketIndex(v)] += n
	h.count += n
	h.sum += v * n
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the exact sum of observations.
func (h *Histogram) Sum() int64 { return h.sum }

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() int64 { return h.min }

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the exact mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns an estimate of the q-quantile (q in [0,1]; out-of-range q
// clamps). The estimate interpolates linearly inside the covering bucket and
// is clamped to the observed [Min, Max], so single-valued histograms return
// the value exactly and the worst-case relative error is the bucket width
// (<= 25%). Empty histograms return 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return float64(h.min)
	}
	if q >= 1 {
		return float64(h.max)
	}
	rank := q * float64(h.count-1)
	var cum int64
	for idx, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) > rank {
			lo, hi := BucketBounds(idx)
			frac := (rank - float64(cum)) / float64(c)
			v := float64(lo) + frac*float64(hi-lo)
			if v < float64(h.min) {
				v = float64(h.min)
			}
			if v > float64(h.max) {
				v = float64(h.max)
			}
			return v
		}
		cum += c
	}
	return float64(h.max)
}

// Merge adds other's observations into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.count += other.count
	h.sum += other.sum
}

// Summary condenses a distribution into the fields surfaced by the
// simulator result types.
type Summary struct {
	// Count is the number of observations.
	Count int64 `json:"count"`
	// Mean is the exact mean.
	Mean float64 `json:"mean"`
	// P50, P95, P99 are interpolated quantile estimates.
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	// Max is the exact maximum.
	Max int64 `json:"max"`
}

// Summary returns the condensed view of h.
func (h *Histogram) Summary() Summary {
	return Summary{
		Count: h.count,
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.max,
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("p50=%.1f p95=%.1f p99=%.1f max=%d mean=%.2f", s.P50, s.P95, s.P99, s.Max, s.Mean)
}

// Bucket is one non-empty histogram bucket in an exported record.
type Bucket struct {
	// Lo and Hi bound the bucket's half-open value range [Lo, Hi).
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
	// Count is the number of observations in the bucket.
	Count int64 `json:"count"`
}

// Buckets returns the non-empty buckets in increasing value order.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	for idx, c := range h.counts {
		if c == 0 {
			continue
		}
		lo, hi := BucketBounds(idx)
		out = append(out, Bucket{Lo: lo, Hi: hi, Count: c})
	}
	return out
}

// CumBucket is one cumulative histogram bucket: Count observations have a
// value <= Le. Observations are integers, so Le is the largest value the
// underlying log bucket contains (its exclusive upper bound minus one),
// which makes the cumulative counts exact rather than estimates.
type CumBucket struct {
	Le    int64
	Count int64
}

// Cumulative returns the non-empty buckets as a cumulative distribution in
// increasing Le order: entry i counts every observation <= Le. The final
// entry's Count equals Count(). This is the shape a Prometheus-style
// text-exposition histogram wants (each `le` series is cumulative, with
// `le="+Inf"` equal to the total count).
func (h *Histogram) Cumulative() []CumBucket {
	var out []CumBucket
	var cum int64
	for idx, c := range h.counts {
		if c == 0 {
			continue
		}
		_, hi := BucketBounds(idx)
		cum += c
		out = append(out, CumBucket{Le: hi - 1, Count: cum})
	}
	return out
}
