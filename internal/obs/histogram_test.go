package obs

import (
	"math"
	"testing"
)

// TestBucketBoundaries: the first four buckets are exact, octaves split into
// 4 sub-buckets, and index/bounds are mutually consistent over every bucket.
func TestBucketBoundaries(t *testing.T) {
	exact := map[int64]int{0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6, 7: 7}
	for v, want := range exact {
		if got := bucketIndex(v); got != want {
			t.Errorf("bucketIndex(%d) = %d, want %d", v, got, want)
		}
	}
	// Powers of two start fresh sub-bucket groups.
	for _, tc := range []struct {
		v    int64
		want int
	}{{8, 8}, {15, 11}, {16, 12}, {31, 15}, {32, 16}, {1 << 20, 4*18 + 4}} {
		if got := bucketIndex(tc.v); got != tc.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
	if got := bucketIndex(-5); got != 0 {
		t.Errorf("negative values must clamp to bucket 0, got %d", got)
	}
	// Bounds are contiguous, non-empty, and every value maps back into its
	// own bucket.
	prevHi := int64(0)
	for idx := 0; idx < histBuckets; idx++ {
		lo, hi := BucketBounds(idx)
		if lo != prevHi {
			t.Fatalf("bucket %d starts at %d, previous ended at %d", idx, lo, prevHi)
		}
		if hi <= lo {
			t.Fatalf("bucket %d empty: [%d, %d)", idx, lo, hi)
		}
		if got := bucketIndex(lo); got != idx {
			t.Fatalf("bucketIndex(lo=%d) = %d, want %d", lo, got, idx)
		}
		if got := bucketIndex(hi - 1); got != idx {
			t.Fatalf("bucketIndex(hi-1=%d) = %d, want %d", hi-1, got, idx)
		}
		prevHi = hi
	}
	if bucketIndex(math.MaxInt64) >= histBuckets {
		t.Fatalf("MaxInt64 bucket %d out of range", bucketIndex(math.MaxInt64))
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	var h Histogram
	// Empty histogram.
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Count() != 0 {
		t.Errorf("empty histogram: quantile %v mean %v count %d", h.Quantile(0.5), h.Mean(), h.Count())
	}
	// Single value: every quantile is that value exactly.
	h.Observe(100)
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
		if got := h.Quantile(q); got != 100 {
			t.Errorf("single value: Quantile(%v) = %v, want 100", q, got)
		}
	}
	// All-equal values within one wide bucket stay exact via min/max clamp.
	h2 := NewHistogram()
	for i := 0; i < 1000; i++ {
		h2.Observe(1000)
	}
	if got := h2.Quantile(0.5); got != 1000 {
		t.Errorf("all-equal: p50 = %v, want 1000", got)
	}
	// q clamping: q<=0 -> min, q>=1 -> max.
	h3 := NewHistogram()
	h3.Observe(1)
	h3.Observe(64)
	if h3.Quantile(0) != 1 || h3.Quantile(1) != 64 {
		t.Errorf("clamp: q0=%v q1=%v", h3.Quantile(0), h3.Quantile(1))
	}
	// Monotone in q.
	h4 := NewHistogram()
	for v := int64(1); v <= 1000; v++ {
		h4.Observe(v)
	}
	prev := h4.Quantile(0)
	for q := 0.05; q <= 1.0; q += 0.05 {
		cur := h4.Quantile(q)
		if cur < prev {
			t.Errorf("quantiles not monotone: q=%.2f %v < %v", q, cur, prev)
		}
		prev = cur
	}
	// Uniform 1..1000: p50 within bucket resolution (<= 25% relative error).
	if p50 := h4.Quantile(0.5); math.Abs(p50-500) > 125 {
		t.Errorf("uniform p50 = %v, want ~500", p50)
	}
	if p99 := h4.Quantile(0.99); math.Abs(p99-990) > 250 {
		t.Errorf("uniform p99 = %v, want ~990", p99)
	}
}

func TestHistogramAggregatesAndMerge(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{5, 1, 9, 3} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 18 || h.Min() != 1 || h.Max() != 9 {
		t.Fatalf("aggregates: count=%d sum=%d min=%d max=%d", h.Count(), h.Sum(), h.Min(), h.Max())
	}
	if h.Mean() != 4.5 {
		t.Errorf("mean = %v, want 4.5", h.Mean())
	}
	other := NewHistogram()
	other.Observe(0)
	other.Observe(100)
	h.Merge(other)
	if h.Count() != 6 || h.Min() != 0 || h.Max() != 100 || h.Sum() != 118 {
		t.Errorf("after merge: count=%d min=%d max=%d sum=%d", h.Count(), h.Min(), h.Max(), h.Sum())
	}
	h.Merge(nil) // must not panic
	s := h.Summary()
	if s.Count != 6 || s.Max != 100 || s.P50 > s.P95 || s.P95 > s.P99 {
		t.Errorf("summary inconsistent: %+v", s)
	}
	if s.String() == "" {
		t.Error("empty Summary.String()")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{2, 2, 17, 1000} {
		h.Observe(v)
	}
	bs := h.Buckets()
	if len(bs) != 3 {
		t.Fatalf("got %d buckets, want 3: %+v", len(bs), bs)
	}
	var total int64
	for i, b := range bs {
		total += b.Count
		if i > 0 && b.Lo < bs[i-1].Hi {
			t.Errorf("buckets out of order: %+v", bs)
		}
		if b.Lo > b.Hi {
			t.Errorf("inverted bucket %+v", b)
		}
	}
	if total != h.Count() {
		t.Errorf("bucket counts sum %d != count %d", total, h.Count())
	}
	if bs[0].Lo != 2 || bs[0].Count != 2 {
		t.Errorf("first bucket %+v, want exact value-2 bucket with count 2", bs[0])
	}
}

func TestCumulative(t *testing.T) {
	h := NewHistogram()
	if got := h.Cumulative(); got != nil {
		t.Fatalf("empty histogram Cumulative = %+v, want nil", got)
	}
	vals := []int64{0, 2, 2, 17, 17, 17, 1000, 1 << 40}
	for _, v := range vals {
		h.Observe(v)
	}
	cum := h.Cumulative()
	if len(cum) == 0 {
		t.Fatal("no cumulative buckets")
	}
	for i, b := range cum {
		if i > 0 {
			if b.Le <= cum[i-1].Le {
				t.Errorf("Le not strictly increasing: %+v", cum)
			}
			if b.Count < cum[i-1].Count {
				t.Errorf("cumulative counts decreasing: %+v", cum)
			}
		}
		// Cross-check against the raw values: Count must equal the number
		// of observations <= Le (cumulative counts are exact for integers).
		var want int64
		for _, v := range vals {
			if v <= b.Le {
				want++
			}
		}
		if b.Count != want {
			t.Errorf("bucket le=%d count=%d, want %d", b.Le, b.Count, want)
		}
	}
	if last := cum[len(cum)-1]; last.Count != h.Count() {
		t.Errorf("final cumulative count %d != total %d", last.Count, h.Count())
	}
}
