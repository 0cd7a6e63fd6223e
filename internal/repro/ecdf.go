package repro

import (
	"math/bits"
	"slices"
	"sort"
)

// ECDF is the empirical cumulative distribution function of a sample
// of domain indices. It keeps the sample in draw order beside a sorted
// copy, so one ECDF serves every quantile estimated from the sample:
// rank queries read the sorted copy in O(log n), and PaddedMedian pads
// from the draws in their original order.
//
// The sorted copy is built in O(n + 2^radixBits). A sample spanning at
// most 2^radixBits values, as every sample over the default 12-bit
// efficiency domain does, is sorted by counting; a wider one by LSD
// radix passes over the bits it spans, three for a 30-bit domain.
type ECDF struct {
	draws  []int
	sorted []int
}

// radixBits is the widest digit of the radix sort; a pass keeps one
// counter per digit value.
const radixBits = 12

// NewECDF builds an ECDF from a sample of domain indices. It keeps
// samples as the draw-order view without copying it: the caller must
// not modify samples while the ECDF is in use. The sorted copy is
// written into buf when its capacity holds the sample, and into a new
// slice otherwise; buf, typically a derivation's scratch, must not
// share memory with samples and belongs to the ECDF while it is in
// use.
func NewECDF(samples, buf []int) *ECDF {
	return &ECDF{draws: samples, sorted: radixSort(samples, buf)}
}

// radixSort writes the values of xs in ascending order into buf, grown
// when its capacity is short, and returns it. Keys are offsets from the
// sample minimum. A sample spanning at most 2^radixBits values is
// sorted by counting: the output is written straight from the counts,
// without a second read of xs. A wider one takes LSD passes over the
// bits it spans, each sorting stably by one digit of at most radixBits
// bits.
func radixSort(xs, buf []int) []int {
	sorted := slices.Grow(buf[:0], len(xs))[:len(xs)]
	if len(xs) == 0 {
		return sorted
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo = min(lo, x)
		hi = max(hi, x)
	}
	span := uint64(hi) - uint64(lo)
	var count [1 << radixBits]int
	if span < 1<<radixBits {
		counts := count[:span+1]
		for _, x := range xs {
			counts[uint64(x)-uint64(lo)]++
		}
		out := sorted
		for d, c := range counts {
			run := out[:c]
			for i := range run {
				run[i] = lo + d
			}
			out = out[c:]
		}
		return sorted
	}

	width := bits.Len64(span)
	passes := (width + radixBits - 1) / radixBits
	digit := uint((width + passes - 1) / passes)
	mask := uint64(1)<<digit - 1
	// Passes alternate between two buffers; start in the one that
	// leaves the last pass's output in sorted.
	dst, spare := sorted, make([]int, len(xs))
	if passes%2 == 0 {
		dst, spare = spare, dst
	}
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
