package repro

import (
	"errors"
	"testing"

	"lcakp/internal/rng"
)

func TestIteratedAccurateOnUniform(t *testing.T) {
	const size = 1 << 12
	const tau = 0.1
	cdf := func(i int) float64 { return float64(i+1) / size }
	gen := uniformGen(20000, size)
	est := Iterated{Tau: tau}
	for _, p := range []float64{0.2, 0.5, 0.85} {
		acc, err := MeasureAccuracy(est, gen, cdf, size, p, tau, 30, 13)
		if err != nil {
			t.Fatalf("accuracy at p=%v: %v", p, err)
		}
		if acc < 0.9 {
			t.Errorf("p=%v: accuracy %v < 0.9", p, acc)
		}
	}
}

func TestIteratedReproducibilityBeatsNaive(t *testing.T) {
	const size = 1 << 12
	gen := uniformGen(20000, size)
	naive, err := MeasureReproducibility(Naive{}, gen, size, 0.6, 40, 17)
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	iter, err := MeasureReproducibility(Iterated{Tau: 0.1}, gen, size, 0.6, 40, 17)
	if err != nil {
		t.Fatalf("iterated: %v", err)
	}
	if iter.Agreement <= naive.Agreement {
		t.Errorf("iterated agreement %v <= naive %v", iter.Agreement, naive.Agreement)
	}
}

func TestIteratedDeterministicGivenSharedAndSample(t *testing.T) {
	gen := uniformGen(3000, 1<<10)
	samples := gen(rng.New(1))
	est := Iterated{Tau: 0.1, StageBits: 3}
	a, err := est.Quantile(NewECDF(samples), 1<<10, 0.4, rng.New(9).Derive("s"), nil)
	if err != nil {
		t.Fatalf("Quantile: %v", err)
	}
	b, err := est.Quantile(NewECDF(samples), 1<<10, 0.4, rng.New(9).Derive("s"), nil)
	if err != nil {
		t.Fatalf("Quantile: %v", err)
	}
	if a != b {
		t.Errorf("same inputs gave %d and %d", a, b)
	}
}

func TestIteratedArgValidation(t *testing.T) {
	est := Iterated{Tau: 0.1}
	if _, err := est.Quantile(nil, 8, 0.5, rng.New(1), nil); !errors.Is(err, ErrNoSamples) {
		t.Errorf("empty samples: %v", err)
	}
	if _, err := est.Quantile(NewECDF([]int{1}), 8, 0.5, nil, nil); !errors.Is(err, ErrBadParam) {
		t.Errorf("nil shared: %v", err)
	}
}

func TestIteratedOutputInDomain(t *testing.T) {
	// Edge domains and stage sizes: output always lands in range.
	root := rng.New(3)
	for _, size := range []int{2, 3, 17, 1 << 8, 1000} {
		for _, stageBits := range []int{1, 2, 4, 8} {
			est := Iterated{Tau: 0.1, StageBits: stageBits}
			samples := make([]int, 500)
			for i := range samples {
				samples[i] = root.Intn(size)
			}
			for _, p := range []float64{0, 0.3, 0.99, 1} {
				out, err := est.Quantile(NewECDF(samples), size, p, root.Derive("s"), nil)
				if err != nil {
					t.Fatalf("size=%d stage=%d p=%v: %v", size, stageBits, p, err)
				}
				if out < 0 || out >= size {
					t.Fatalf("size=%d stage=%d p=%v: out=%d", size, stageBits, p, out)
				}
			}
		}
	}
}
