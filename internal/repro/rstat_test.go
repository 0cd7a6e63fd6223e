package repro

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"lcakp/internal/rng"
)

// uniformFloatGen draws n uniforms in [0, 1).
func uniformFloatGen(n int) func(src *rng.Source) []float64 {
	return func(src *rng.Source) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = src.Float64()
		}
		return out
	}
}

func TestRStatAccuracy(t *testing.T) {
	r := RStat{Lo: 0, Hi: 1, Alpha: 0.02}
	gen := uniformFloatGen(20000)
	est, err := r.Estimate(gen(rng.New(1)), rng.New(2))
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	// True mean 0.5; error bounded by sampling noise + Alpha.
	if math.Abs(est-0.5) > 0.03 {
		t.Errorf("estimate = %v, want ~0.5", est)
	}
}

func TestRStatReproducibleVsNaiveRounding(t *testing.T) {
	gen := uniformFloatGen(20000)
	r := RStat{Lo: 0, Hi: 1, Alpha: 0.05}
	rate, err := r.MeasureScalarReproducibility(gen, 200, 3)
	if err != nil {
		t.Fatalf("MeasureScalarReproducibility: %v", err)
	}
	// Hoeffding: |mean1-mean2| ~ 1e-2/sqrt(2)... with n=20000 the std
	// of the mean is ~0.002; disagreement ~ 2*0.002/0.05 = 8%.
	if rate < 0.8 {
		t.Errorf("reproducibility %v < 0.8", rate)
	}
	// Tiny grid (alpha inside the noise) must be visibly worse.
	tight := RStat{Lo: 0, Hi: 1, Alpha: 1e-6}
	tightRate, err := tight.MeasureScalarReproducibility(gen, 200, 3)
	if err != nil {
		t.Fatalf("tight: %v", err)
	}
	if tightRate >= rate {
		t.Errorf("tight grid rate %v >= wide grid rate %v", tightRate, rate)
	}
}

func TestRStatDeterministicGivenSharedAndSample(t *testing.T) {
	values := []float64{0.1, 0.2, 0.3, 0.4}
	r := RStat{Lo: 0, Hi: 1}
	a, err := r.Estimate(values, rng.New(9).Derive("s"))
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	b, err := r.Estimate(values, rng.New(9).Derive("s"))
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if a != b {
		t.Errorf("same inputs gave %v and %v", a, b)
	}
}

func TestRStatOutputInRange(t *testing.T) {
	r := RStat{Lo: -2, Hi: 3, Alpha: 0.5}
	root := rng.New(4)
	for trial := 0; trial < 200; trial++ {
		src := root.DeriveIndex("t", trial)
		values := make([]float64, 50)
		for i := range values {
			values[i] = -2 + 5*src.Float64()
		}
		out, err := r.Estimate(values, src.Derive("shared"))
		if err != nil {
			t.Fatalf("Estimate: %v", err)
		}
		if out < -2 || out > 3 {
			t.Fatalf("estimate %v outside range", out)
		}
	}
}

func TestRStatValidation(t *testing.T) {
	shared := rng.New(1)
	r := RStat{Lo: 0, Hi: 1}
	if _, err := r.Estimate(nil, shared); !errors.Is(err, ErrNoSamples) {
		t.Errorf("empty: %v", err)
	}
	if _, err := r.Estimate([]float64{0.5}, nil); !errors.Is(err, ErrBadParam) {
		t.Errorf("nil shared: %v", err)
	}
	if _, err := (RStat{Lo: 1, Hi: 0}).Estimate([]float64{0.5}, shared); !errors.Is(err, ErrBadParam) {
		t.Errorf("inverted range: %v", err)
	}
	if _, err := r.Estimate([]float64{2}, shared); !errors.Is(err, ErrBadParam) {
		t.Errorf("out-of-range value: %v", err)
	}
	if _, err := (RStat{Lo: 0, Hi: 1, Alpha: 5}).Estimate([]float64{0.5}, shared); !errors.Is(err, ErrBadParam) {
		t.Errorf("alpha > range: %v", err)
	}
	if _, err := r.MeasureScalarReproducibility(uniformFloatGen(5), 0, 1); !errors.Is(err, ErrBadParam) {
		t.Errorf("trials=0: %v", err)
	}
}

// MeasureScalarReproducibility estimates how often two fresh-sample
// runs of Estimate return identical values (analogous to
// MeasureReproducibility for the quantile estimators).
func (r RStat) MeasureScalarReproducibility(
	gen func(src *rng.Source) []float64,
	trials int,
	seed uint64,
) (float64, error) {
	if trials <= 0 {
		return 0, fmt.Errorf("%w: trials=%d", ErrBadParam, trials)
	}
	root := rng.New(seed)
	agree := 0
	for trial := 0; trial < trials; trial++ {
		shared1 := root.DeriveIndex("shared", trial)
		shared2 := root.DeriveIndex("shared", trial)
		a, err := r.Estimate(gen(root.DeriveIndex("sa", trial)), shared1)
		if err != nil {
			return 0, err
		}
		b, err := r.Estimate(gen(root.DeriveIndex("sb", trial)), shared2)
		if err != nil {
			return 0, err
		}
		if a == b {
			agree++
		}
	}
	return float64(agree) / float64(trials), nil
}
