package repro

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"lcakp/internal/rng"
)

func TestDomainRoundTrip(t *testing.T) {
	d, err := NewDomain(1e-3, 1e6, 12)
	if err != nil {
		t.Fatalf("NewDomain: %v", err)
	}
	if d.Size() != 4096 || d.Bits() != 12 {
		t.Errorf("Size=%d Bits=%d", d.Size(), d.Bits())
	}
	for _, v := range []float64{1e-3, 0.5, 1, 42, 1e3, 999999} {
		idx := d.Index(v)
		back := d.Value(idx)
		// Value(Index(v)) is the lower cell boundary: within one
		// multiplicative resolution step of v.
		if back > v*(1+1e-12) {
			t.Errorf("Value(Index(%v)) = %v exceeds input", v, back)
		}
		if back < v/(1+2*d.Resolution()) {
			t.Errorf("Value(Index(%v)) = %v too far below input (res %v)", v, back, d.Resolution())
		}
	}
}

func TestDomainEdgeCases(t *testing.T) {
	d, err := NewDomain(0.01, 100, 8)
	if err != nil {
		t.Fatalf("NewDomain: %v", err)
	}
	if d.Index(0) != 0 || d.Index(-5) != 0 || d.Index(math.NaN()) != 0 {
		t.Error("values at/below min must map to cell 0")
	}
	if d.Index(1e9) != d.Size()-1 || d.Index(math.Inf(1)) != d.Size()-1 {
		t.Error("values at/above max must map to the top cell")
	}
	if d.Value(-3) != d.Min() || d.Value(d.Size()+5) != d.Max() {
		t.Error("out-of-range indices must clamp")
	}
}

func TestDomainMonotone(t *testing.T) {
	d, err := NewDomain(0.001, 1000, 10)
	if err != nil {
		t.Fatalf("NewDomain: %v", err)
	}
	prev := -1
	for v := 0.001; v < 1000; v *= 1.37 {
		idx := d.Index(v)
		if idx < prev {
			t.Fatalf("Index not monotone at %v: %d < %d", v, idx, prev)
		}
		prev = idx
	}
}

func TestDomainInvalid(t *testing.T) {
	cases := []struct {
		min, max float64
		bits     int
	}{
		{0, 1, 4},
		{-1, 1, 4},
		{1, 1, 4},
		{2, 1, 4},
		{1, 2, 0},
		{1, 2, 31},
		{1, math.Inf(1), 4},
	}
	for _, tc := range cases {
		if _, err := NewDomain(tc.min, tc.max, tc.bits); !errors.Is(err, ErrBadDomain) {
			t.Errorf("NewDomain(%v,%v,%d) error = %v, want ErrBadDomain", tc.min, tc.max, tc.bits, err)
		}
	}
}

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]int{5, 1, 3, 3, 9})
	if e.N() != 5 {
		t.Errorf("N = %d", e.N())
	}
	tests := []struct {
		x    int
		want int
	}{{0, 0}, {1, 1}, {2, 1}, {3, 3}, {5, 4}, {9, 5}, {100, 5}}
	for _, tc := range tests {
		if got := e.CountLE(tc.x); got != tc.want {
			t.Errorf("CountLE(%d) = %d, want %d", tc.x, got, tc.want)
		}
	}
	if got := e.FractionLE(3); got != 0.6 {
		t.Errorf("FractionLE(3) = %v", got)
	}
}

func TestECDFQuantile(t *testing.T) {
	e := NewECDF([]int{10, 20, 30, 40})
	tests := []struct {
		p    float64
		want int
	}{{0, 10}, {0.25, 10}, {0.26, 20}, {0.5, 20}, {0.75, 30}, {1, 40}}
	for _, tc := range tests {
		got, ok := e.Quantile(tc.p)
		if !ok || got != tc.want {
			t.Errorf("Quantile(%v) = %d/%v, want %d", tc.p, got, ok, tc.want)
		}
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if _, ok := e.Quantile(0.5); ok {
		t.Error("Quantile on empty ECDF returned ok")
	}
	if _, ok := e.Min(); ok {
		t.Error("Min on empty ECDF returned ok")
	}
	if e.FractionLE(3) != 0 {
		t.Error("FractionLE on empty ECDF nonzero")
	}
}

func TestECDFDoesNotMutateInput(t *testing.T) {
	in := []int{3, 1, 2}
	_ = NewECDF(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("input mutated: %v", in)
	}
}

// uniformGen returns a generator of n i.i.d. uniform indices over
// [0, size).
func uniformGen(n, size int) func(src *rng.Source) []int {
	return func(src *rng.Source) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = src.Intn(size)
		}
		return out
	}
}

func TestEstimatorsAccurateOnUniform(t *testing.T) {
	const size = 1 << 10
	const tau = 0.1
	cdf := func(i int) float64 { return float64(i+1) / size }
	gen := uniformGen(20000, size)
	for _, est := range []Estimator{
		Naive{},
		Snap{Tau: tau},
		Trie{Tau: tau},
		PaddedMedian{Tau: tau},
	} {
		for _, p := range []float64{0.25, 0.5, 0.9} {
			acc, err := MeasureAccuracy(est, gen, cdf, size, p, tau, 30, 7)
			if err != nil {
				t.Fatalf("%s accuracy: %v", est.Name(), err)
			}
			if acc < 0.9 {
				t.Errorf("%s at p=%v: accuracy %v < 0.9", est.Name(), p, acc)
			}
		}
	}
}

func TestTrieMoreReproducibleThanNaive(t *testing.T) {
	// Dense heavy-tail distribution: adjacent indices have nearly
	// equal CDF, so the naive estimator cannot return the same index
	// across fresh samples.
	const size = 1 << 10
	pmf := make([]float64, size)
	for i := range pmf {
		pmf[i] = 1 / float64(i+2)
	}
	total := 0.0
	for _, p := range pmf {
		total += p
	}
	cdf := make([]float64, size)
	run := 0.0
	for i, p := range pmf {
		run += p / total
		cdf[i] = run
	}
	gen := func(src *rng.Source) []int {
		out := make([]int, 5000)
		for s := range out {
			u := src.Float64()
			lo, hi := 0, size-1
			for lo < hi {
				mid := (lo + hi) / 2
				if cdf[mid] < u {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			out[s] = lo
		}
		return out
	}
	naive, err := MeasureReproducibility(Naive{}, gen, size, 0.6, 40, 3)
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	trie, err := MeasureReproducibility(Trie{Tau: 0.1}, gen, size, 0.6, 40, 3)
	if err != nil {
		t.Fatalf("trie: %v", err)
	}
	if naive.Agreement >= trie.Agreement {
		t.Errorf("naive agreement %v >= trie agreement %v", naive.Agreement, trie.Agreement)
	}
	if trie.Agreement < 0.5 {
		t.Errorf("trie agreement %v unexpectedly low", trie.Agreement)
	}
}

func TestTrieDeterministicGivenSharedAndSample(t *testing.T) {
	// With the same sample AND the same shared randomness, the output
	// is identical (full determinism, stronger than reproducibility).
	gen := uniformGen(2000, 1<<8)
	samples := gen(rng.New(1))
	est := Trie{Tau: 0.1}
	a, err := est.Quantile(NewECDF(samples), 1<<8, 0.4, rng.New(9).Derive("s"), nil)
	if err != nil {
		t.Fatalf("Quantile: %v", err)
	}
	b, err := est.Quantile(NewECDF(samples), 1<<8, 0.4, rng.New(9).Derive("s"), nil)
	if err != nil {
		t.Fatalf("Quantile: %v", err)
	}
	if a != b {
		t.Errorf("same inputs gave %d and %d", a, b)
	}
}

func TestEstimatorArgValidation(t *testing.T) {
	shared := rng.New(1)
	fresh := rng.New(2)
	samples := []int{1, 2, 3}
	for _, est := range []Estimator{Naive{}, Snap{Tau: 0.1}, Trie{Tau: 0.1}, PaddedMedian{Tau: 0.1}} {
		if _, err := est.Quantile(nil, 8, 0.5, shared, fresh); !errors.Is(err, ErrNoSamples) {
			t.Errorf("%s empty samples: %v", est.Name(), err)
		}
		if _, err := est.Quantile(NewECDF(samples), 1, 0.5, shared, fresh); !errors.Is(err, ErrBadParam) {
			t.Errorf("%s domain=1: %v", est.Name(), err)
		}
		if _, err := est.Quantile(NewECDF(samples), 8, -0.1, shared, fresh); !errors.Is(err, ErrBadParam) {
			t.Errorf("%s p=-0.1: %v", est.Name(), err)
		}
		if _, err := est.Quantile(NewECDF(samples), 8, 1.1, shared, fresh); !errors.Is(err, ErrBadParam) {
			t.Errorf("%s p=1.1: %v", est.Name(), err)
		}
	}
	// Reproducible estimators demand shared randomness.
	for _, est := range []Estimator{Snap{Tau: 0.1}, Trie{Tau: 0.1}, PaddedMedian{Tau: 0.1}} {
		if _, err := est.Quantile(NewECDF(samples), 8, 0.5, nil, fresh); !errors.Is(err, ErrBadParam) {
			t.Errorf("%s nil shared: %v", est.Name(), err)
		}
	}
	if _, err := (PaddedMedian{Tau: 0.1}).Quantile(NewECDF(samples), 8, 0.5, shared, nil); !errors.Is(err, ErrBadParam) {
		t.Error("PaddedMedian accepted nil fresh randomness")
	}
}

func TestQuantileOutputInDomainQuick(t *testing.T) {
	// Property: every estimator returns an index inside the domain for
	// arbitrary inputs.
	f := func(seed uint64, pRaw uint8, sizeRaw uint8) bool {
		size := 2 + int(sizeRaw)%1000
		p := float64(pRaw) / 255
		src := rng.New(seed)
		samples := make([]int, 500)
		for i := range samples {
			samples[i] = src.Intn(size)
		}
		shared := rng.New(seed + 1)
		fresh := rng.New(seed + 2)
		for _, est := range []Estimator{Naive{}, Snap{Tau: 0.1}, Trie{Tau: 0.1}, PaddedMedian{Tau: 0.1}} {
			out, err := est.Quantile(NewECDF(samples), size, p, shared, fresh)
			if err != nil || out < 0 || out >= size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLogStar(t *testing.T) {
	tests := []struct {
		x    float64
		want int
	}{{0.5, 0}, {1, 0}, {2, 1}, {4, 2}, {16, 3}, {65536, 4}, {1e19, 5}}
	for _, tc := range tests {
		if got := LogStar(tc.x); got != tc.want {
			t.Errorf("LogStar(%v) = %d, want %d", tc.x, got, tc.want)
		}
	}
}

func TestSampleComplexityMonotone(t *testing.T) {
	base, err := SampleComplexity(10, 0.1, 0.1, 0.1)
	if err != nil {
		t.Fatalf("SampleComplexity: %v", err)
	}
	tighterTau, err := SampleComplexity(10, 0.05, 0.1, 0.1)
	if err != nil {
		t.Fatalf("SampleComplexity: %v", err)
	}
	biggerDomain, err := SampleComplexity(20, 0.1, 0.1, 0.1)
	if err != nil {
		t.Fatalf("SampleComplexity: %v", err)
	}
	if tighterTau <= base || biggerDomain <= base {
		t.Errorf("sample complexity not monotone: base=%d tau=%d domain=%d",
			base, tighterTau, biggerDomain)
	}
	if _, err := SampleComplexity(0, 0.1, 0.1, 0.1); !errors.Is(err, ErrBadParam) {
		t.Errorf("bits=0: %v", err)
	}
}

func TestPaperFormulaGrowsWithLogStar(t *testing.T) {
	small := PaperRMedianSampleComplexity(4, 0.1, 0.1)
	big := PaperRMedianSampleComplexity(20, 0.1, 0.1)
	if big <= small {
		t.Errorf("paper formula not growing: %v <= %v", big, small)
	}
}

func TestMeasureReproducibilityValidation(t *testing.T) {
	gen := uniformGen(100, 16)
	if _, err := MeasureReproducibility(Naive{}, gen, 16, 0.5, 0, 1); !errors.Is(err, ErrBadParam) {
		t.Errorf("trials=0: %v", err)
	}
	if _, err := MeasureAccuracy(Naive{}, gen, func(int) float64 { return 0 }, 16, 0.5, 0.1, 0, 1); !errors.Is(err, ErrBadParam) {
		t.Errorf("accuracy trials=0: %v", err)
	}
}
