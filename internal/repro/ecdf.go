package repro

import (
	"math/bits"
	"sort"
)

// ECDF is the empirical cumulative distribution function of a sample
// of domain indices. It keeps the sample in draw order beside a sorted
// copy, so one ECDF serves every quantile estimated from the sample:
// rank queries read the sorted copy in O(log n), and PaddedMedian pads
// from the draws in their original order.
//
// The sorted copy is built by an LSD radix sort over the bits the
// sample spans, in O(n + 2^radixBits) per pass. A sample over the
// default 12-bit efficiency domain takes a single counting pass; a
// 30-bit domain takes three.
type ECDF struct {
	draws  []int
	sorted []int
}

// radixBits is the widest digit of the radix sort; a pass keeps one
// counter per digit value.
const radixBits = 12

// NewECDF builds an ECDF from a sample of domain indices. It keeps
// samples as the draw-order view without copying it: the caller must
// not modify samples while the ECDF is in use.
func NewECDF(samples []int) *ECDF {
	return &ECDF{draws: samples, sorted: radixSort(samples)}
}

// radixSort returns a sorted copy of xs. Keys are offsets from the
// sample minimum, so the passes cover only the bits the sample spans;
// each pass sorts stably by one digit of at most radixBits bits.
func radixSort(xs []int) []int {
	sorted := make([]int, len(xs))
	if len(xs) == 0 {
		return sorted
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo = min(lo, x)
		hi = max(hi, x)
	}
	width := bits.Len64(uint64(hi) - uint64(lo))
	if width == 0 {
		copy(sorted, xs)
		return sorted
	}
	passes := (width + radixBits - 1) / radixBits
	digit := uint((width + passes - 1) / passes)
	mask := uint64(1)<<digit - 1

	// Passes alternate between two buffers; start in the one that
	// leaves the last pass's output in sorted.
	dst, spare := sorted, []int(nil)
	if passes > 1 {
		spare = make([]int, len(xs))
		if passes%2 == 0 {
			dst, spare = spare, dst
		}
	}
	var count [1 << radixBits]int
	src := xs
	for p := range passes {
		shift := uint(p) * digit
		counts := count[:1<<digit]
		clear(counts)
		for _, x := range src {
			counts[(uint64(x)-uint64(lo))>>shift&mask]++
		}
		next := 0
		for d, c := range counts {
			counts[d] = next
			next += c
		}
		for _, x := range src {
			d := (uint64(x) - uint64(lo)) >> shift & mask
			dst[counts[d]] = x
			counts[d]++
		}
		src, dst, spare = dst, spare, dst
	}
	return sorted
}

// N returns the sample size.
func (e *ECDF) N() int { return len(e.sorted) }

// Draws returns the sample in draw order. The slice is shared with the
// ECDF and must not be modified.
func (e *ECDF) Draws() []int { return e.draws }

// CountLE returns how many samples are <= x.
func (e *ECDF) CountLE(x int) int {
	return sort.SearchInts(e.sorted, x+1)
}

// FractionLE returns the empirical probability of a sample being <= x.
// It returns 0 on an empty sample.
func (e *ECDF) FractionLE(x int) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	return float64(e.CountLE(x)) / float64(len(e.sorted))
}

// Quantile returns the smallest index x in the sample such that
// FractionLE(x) >= p (the standard empirical p-quantile). For p <= 0
// it returns the minimum sample; for p >= 1 the maximum. It returns
// ok=false on an empty sample.
func (e *ECDF) Quantile(p float64) (x int, ok bool) {
	n := len(e.sorted)
	if n == 0 {
		return 0, false
	}
	if p <= 0 {
		return e.sorted[0], true
	}
	k := int(p * float64(n))
	if float64(k) < p*float64(n) {
		k++
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return e.sorted[k-1], true
}

// Min returns the smallest sample and ok=false when empty.
func (e *ECDF) Min() (int, bool) {
	if len(e.sorted) == 0 {
		return 0, false
	}
	return e.sorted[0], true
}

// Max returns the largest sample and ok=false when empty.
func (e *ECDF) Max() (int, bool) {
	if len(e.sorted) == 0 {
		return 0, false
	}
	return e.sorted[len(e.sorted)-1], true
}
