package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestBucketIndexMonotoneAndBounded(t *testing.T) {
	// Exhaustive low range plus probes across the full int64 span: the
	// index must be monotone non-decreasing in the value, in range, and
	// every value must fall at or below its bucket's upper bound.
	values := []int64{}
	for v := int64(0); v < 4096; v++ {
		values = append(values, v)
	}
	for shift := uint(12); shift < 63; shift++ {
		base := int64(1) << shift
		values = append(values, base-1, base, base+1, base+base/3)
	}
	values = append(values, math.MaxInt64)

	prevIdx := -1
	var prevVal int64 = -1
	for _, v := range values {
		if v < prevVal {
			continue // probe construction overlaps; only check sorted pairs
		}
		idx := bucketIndex(v)
		if idx < 0 || idx >= numBuckets {
			t.Fatalf("bucketIndex(%d) = %d, out of [0, %d)", v, idx, numBuckets)
		}
		if idx < prevIdx {
			t.Fatalf("bucketIndex not monotone: value %d -> bucket %d after value %d -> bucket %d", v, idx, prevVal, prevIdx)
		}
		if upper := bucketUpper(idx); v > upper {
			t.Fatalf("value %d exceeds its bucket %d upper bound %d", v, idx, upper)
		}
		prevIdx, prevVal = idx, v
	}
}

func TestBucketUpperMonotone(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < numBuckets; i++ {
		u := bucketUpper(i)
		if u <= prev {
			t.Fatalf("bucketUpper(%d) = %d, not above bucketUpper(%d) = %d", i, u, i-1, prev)
		}
		prev = u
	}
}

func TestHistogramBasics(t *testing.T) {
	h := &Histogram{}
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile(0.5) = %v, want 0", got)
	}
	ds := []time.Duration{time.Microsecond, 2 * time.Microsecond, 3 * time.Microsecond, time.Millisecond}
	var sum time.Duration
	for _, d := range ds {
		h.Observe(d)
		sum += d
	}
	if h.Count() != int64(len(ds)) {
		t.Errorf("Count = %d, want %d", h.Count(), len(ds))
	}
	if h.Sum() != sum {
		t.Errorf("Sum = %v, want %v", h.Sum(), sum)
	}
	if h.Max() != time.Millisecond {
		t.Errorf("Max = %v, want %v", h.Max(), time.Millisecond)
	}
	// The p99 must land in the top observation's bucket: within one
	// sub-bucket (6.25%) above it.
	p99 := h.Quantile(0.99)
	if p99 < time.Millisecond || p99 > time.Millisecond+time.Millisecond/8 {
		t.Errorf("Quantile(0.99) = %v, want ~%v (upper bucket bound)", p99, time.Millisecond)
	}
	// Negative observations clamp instead of corrupting buckets.
	h.Observe(-time.Second)
	if h.Count() != int64(len(ds))+1 {
		t.Errorf("Count after negative observe = %d", h.Count())
	}
}

// TestHistogramConcurrentHammer drives one histogram from 8 goroutines
// (run under -race in CI) and asserts the cross-field invariants that
// survive relaxed per-field atomicity: exact count, exact sum, exact
// max, bucket totals equal to count, and quantiles that are monotone
// in q and bounded by max.
func TestHistogramConcurrentHammer(t *testing.T) {
	const (
		workers       = 8
		perWorker     = 20_000
		spreadBuckets = 977 // prime stride so workers hit many buckets
	)
	h := &Histogram{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Deterministic per-worker value stream spanning ns..ms.
				v := time.Duration((i*spreadBuckets+w)%1_000_000 + 1)
				h.Observe(v)
			}
		}(w)
	}
	wg.Wait()

	const total = workers * perWorker
	if h.Count() != total {
		t.Errorf("Count = %d, want %d", h.Count(), total)
	}
	var wantSum, wantMax int64
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			v := int64((i*spreadBuckets+w)%1_000_000 + 1)
			wantSum += v
			if v > wantMax {
				wantMax = v
			}
		}
	}
	if int64(h.Sum()) != wantSum {
		t.Errorf("Sum = %d, want %d", int64(h.Sum()), wantSum)
	}
	if int64(h.Max()) != wantMax {
		t.Errorf("Max = %d, want %d", int64(h.Max()), wantMax)
	}
	var bucketTotal int64
	for i := range h.counts {
		bucketTotal += h.counts[i].Load()
	}
	if bucketTotal != total {
		t.Errorf("bucket total = %d, want %d", bucketTotal, total)
	}
	qs := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1}
	prev := time.Duration(-1)
	for _, q := range qs {
		v := h.Quantile(q)
		if v < prev {
			t.Errorf("Quantile(%v) = %v below Quantile at smaller q (%v): quantiles must be monotone", q, v, prev)
		}
		prev = v
	}
	// The top quantile may exceed max only by its bucket rounding.
	if top := h.Quantile(1); top > h.Max()+h.Max()/8 {
		t.Errorf("Quantile(1) = %v far above Max = %v", top, h.Max())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	// A uniform ramp 1..N: every quantile upper bound must sit within
	// one sub-bucket (1/16) of the true order statistic.
	h := &Histogram{}
	const n = 100_000
	for v := 1; v <= n; v++ {
		h.Observe(time.Duration(v))
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		truth := float64(n) * q
		got := float64(h.Quantile(q))
		if got < truth*(1-1.0/subBucketCount) || got > truth*(1+2.0/subBucketCount) {
			t.Errorf("Quantile(%v) = %v, want within a sub-bucket of %v", q, got, truth)
		}
	}
}
