package repro

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"lcakp/internal/rng"
)

// goldenSample draws 1,500 domain indices over a 2^bits domain:
// uniform draws, a narrow cluster a third of the way up, and 150 draws
// each of cells 0 and Size-1, shuffled.
func goldenSample(bits int) []int {
	size := 1 << bits
	src := rng.New(5).Derive("estimator-golden", fmt.Sprint(bits))
	out := make([]int, 0, 1500)
	for range 600 {
		out = append(out, src.Intn(size))
	}
	lo, width := size/3, size/50+1
	for range 600 {
		out = append(out, min(lo+src.Intn(width), size-1))
	}
	for range 150 {
		out = append(out, 0, size-1)
	}
	src.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestEstimatorsGolden pins every estimator's output on goldenSample
// at DomainBits 1, 8, 12 and 30 to the indices they returned when each
// call still sorted its own copy of the sample, before the ECDF was
// radix-built once and shared. A changed index means the once-per-
// derivation CDF changed an answer.
func TestEstimatorsGolden(t *testing.T) {
	ps := []float64{0, 0.05, 0.37, 0.5, 0.8, 0.99, 1}
	golden := []struct {
		bits int
		est  Estimator
		want []int
	}{
		{1, Naive{}, []int{0, 0, 0, 0, 1, 1, 1}},
		{1, Snap{Tau: 0.1}, []int{0, 0, 0, 0, 1, 1, 1}},
		{1, Trie{Tau: 0.05}, []int{0, 0, 0, 0, 1, 1, 1}},
		{1, Iterated{Tau: 0.05}, []int{0, 0, 0, 0, 1, 1, 1}},
		{1, PaddedMedian{Tau: 0.05}, []int{0, 0, 0, 0, 1, 1, 1}},
		{8, Naive{}, []int{0, 0, 86, 88, 189, 255, 255}},
		{8, Snap{Tau: 0.1}, []int{0, 0, 85, 87, 186, 255, 252}},
		{8, Trie{Tau: 0.05}, []int{0, 0, 87, 88, 193, 255, 255}},
		{8, Iterated{Tau: 0.05}, []int{0, 0, 87, 88, 196, 255, 255}},
		{8, PaddedMedian{Tau: 0.05}, []int{0, 0, 87, 88, 174, 255, 255}},
		{12, Naive{}, []int{0, 0, 1392, 1420, 3063, 4095, 4095}},
		{12, Snap{Tau: 0.1}, []int{0, 0, 1362, 1396, 3055, 4093, 4044}},
		{12, Trie{Tau: 0.05}, []int{0, 0, 1393, 1421, 3208, 4095, 4095}},
		{12, Iterated{Tau: 0.05}, []int{0, 0, 1395, 1421, 3144, 4095, 4095}},
		{12, PaddedMedian{Tau: 0.05}, []int{0, 0, 1393, 1423, 3081, 4095, 4095}},
		{30, Naive{}, []int{0, 0, 365068197, 371864157, 813340852, 1073741823, 1073741823}},
		{30, Snap{Tau: 0.1}, []int{0, 0, 357160337, 366049627, 801002687, 1073196009, 1060294333}},
		{30, Trie{Tau: 0.05}, []int{0, 0, 365221561, 371986006, 845739524, 1073741823, 1073741823}},
		{30, Iterated{Tau: 0.05}, []int{0, 0, 365415758, 372104967, 823777806, 1073741823, 1073741823}},
		{30, PaddedMedian{Tau: 0.05}, []int{0, 0, 365204504, 373034580, 811611137, 1073741823, 1073741823}},
	}
	for _, g := range golden {
		// One ECDF per sample serves every p, as in a derivation.
		cdf := NewECDF(goldenSample(g.bits))
		got := make([]int, len(ps))
		for k, p := range ps {
			shared := rng.New(11).DeriveIndex("shared", k)
			fresh := rng.New(12).DeriveIndex("fresh", k)
			idx, err := g.est.Quantile(cdf, 1<<g.bits, p, shared, fresh)
			if err != nil {
				t.Fatalf("bits=%d %s p=%v: %v", g.bits, g.est.Name(), p, err)
			}
			got[k] = idx
		}
		if !slices.Equal(got, g.want) {
			t.Errorf("bits=%d %s: indices %v, want %v", g.bits, g.est.Name(), got, g.want)
		}
	}
}

// TestECDFSortedMatchesSort holds the radix build to a comparison sort
// and keeps the draws in order, on samples spanning 1 to 64 bits,
// negative values included.
func TestECDFSortedMatchesSort(t *testing.T) {
	src := rng.New(3)
	for _, span := range []uint64{0, 1, 2, 255, 1 << 12, 1<<12 + 2, 1 << 20, 1 << 30, math.MaxUint64} {
		for _, n := range []int{1, 2, 17, 3000} {
			samples := make([]int, n)
			for i := range samples {
				v := src.Uint64()
				if span != math.MaxUint64 {
					v %= span + 1
				}
				samples[i] = int(v)
				if span == 255 {
					samples[i] -= 128 // straddle zero
				}
			}
			drawOrder := slices.Clone(samples)
			e := NewECDF(samples)
			if want := slices.Sorted(slices.Values(samples)); !slices.Equal(e.sorted, want) {
				t.Fatalf("span=%d n=%d: radix order differs from a comparison sort", span, n)
			}
			if !slices.Equal(e.Draws(), drawOrder) || !slices.Equal(samples, drawOrder) {
				t.Fatalf("span=%d n=%d: draw order not kept", span, n)
			}
		}
	}
}
