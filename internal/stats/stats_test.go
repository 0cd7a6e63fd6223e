package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		p    float64
		want float64
	}{{0, 1}, {0.2, 1}, {0.21, 2}, {0.5, 3}, {1, 5}, {-1, 1}, {2, 5}}
	for _, tc := range tests {
		if got := Quantile(xs, tc.p); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(nil) not NaN")
	}
	// Input must not be mutated (Quantile sorts a copy).
	unsorted := []float64{3, 1, 2}
	_ = Quantile(unsorted, 0.5)
	if unsorted[0] != 3 {
		t.Error("Quantile mutated its input")
	}
}

func TestProportionWilson(t *testing.T) {
	p, err := NewProportion(50, 100)
	if err != nil {
		t.Fatalf("NewProportion: %v", err)
	}
	if p.Estimate != 0.5 {
		t.Errorf("Estimate = %v", p.Estimate)
	}
	if p.Lo >= p.Estimate || p.Hi <= p.Estimate {
		t.Errorf("interval [%v, %v] does not bracket estimate", p.Lo, p.Hi)
	}
	// Wilson interval at p=0.5, n=100 is roughly ±0.097.
	if p.Lo < 0.39 || p.Lo > 0.41 || p.Hi < 0.59 || p.Hi > 0.61 {
		t.Errorf("interval [%v, %v] outside expected range", p.Lo, p.Hi)
	}
}

func TestProportionExtremes(t *testing.T) {
	zero, err := NewProportion(0, 50)
	if err != nil {
		t.Fatalf("NewProportion: %v", err)
	}
	if zero.Lo > 1e-12 || zero.Hi <= 0 {
		t.Errorf("zero-successes interval [%v, %v]", zero.Lo, zero.Hi)
	}
	all, err := NewProportion(50, 50)
	if err != nil {
		t.Fatalf("NewProportion: %v", err)
	}
	if all.Hi < 1-1e-12 || all.Lo >= 1 {
		t.Errorf("all-successes interval [%v, %v]", all.Lo, all.Hi)
	}
}

func TestProportionErrors(t *testing.T) {
	if _, err := NewProportion(1, 0); err == nil {
		t.Error("trials=0 accepted")
	}
	if _, err := NewProportion(-1, 10); err == nil {
		t.Error("negative successes accepted")
	}
	if _, err := NewProportion(11, 10); err == nil {
		t.Error("successes > trials accepted")
	}
}

func TestProportionBracketsQuick(t *testing.T) {
	f := func(sRaw, tRaw uint16) bool {
		trials := int(tRaw%1000) + 1
		successes := int(sRaw) % (trials + 1)
		p, err := NewProportion(successes, trials)
		if err != nil {
			return false
		}
		return p.Lo >= 0 && p.Hi <= 1 && p.Lo <= p.Hi &&
			p.Lo <= p.Estimate+1e-12 && p.Hi >= p.Estimate-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
