package repro

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"lcakp/internal/rng"
)

// hhGen returns a generator drawing n samples from a distribution with
// `heavy` items of mass heavyMass each and the rest spread over a
// light tail of 1000 identifiers (ids 1000+).
func hhGen(n, heavy int, heavyMass float64) func(src *rng.Source) []int {
	return func(src *rng.Source) []int {
		out := make([]int, n)
		for i := range out {
			u := src.Float64()
			if u < float64(heavy)*heavyMass {
				out[i] = int(u / heavyMass) // heavy ids 0..heavy-1
			} else {
				out[i] = 1000 + src.Intn(1000)
			}
		}
		return out
	}
}

func TestHeavyHittersFindsHeavyItems(t *testing.T) {
	gen := hhGen(20000, 4, 0.1) // four items at 10% mass each
	hh := HeavyHitters{Threshold: 0.05}
	hits, err := hh.Hits(gen(rng.New(1)), rng.New(2))
	if err != nil {
		t.Fatalf("Hits: %v", err)
	}
	if len(hits) != 4 {
		t.Fatalf("hits = %v, want the 4 heavy ids", hits)
	}
	for i, id := range hits {
		if id != i {
			t.Errorf("hits = %v, want [0 1 2 3]", hits)
			break
		}
	}
}

func TestHeavyHittersExcludesLightItems(t *testing.T) {
	// All mass spread thinly: nothing clears a 5% threshold.
	gen := hhGen(20000, 0, 0)
	hh := HeavyHitters{Threshold: 0.05}
	hits, err := hh.Hits(gen(rng.New(3)), rng.New(4))
	if err != nil {
		t.Fatalf("Hits: %v", err)
	}
	if len(hits) != 0 {
		t.Errorf("hits = %v, want none", hits)
	}
}

func TestHeavyHittersReproducible(t *testing.T) {
	// Items straddling the threshold (mass = threshold exactly) are
	// the adversarial case; the randomized cutoff keeps two runs
	// agreeing w.h.p. anyway.
	gen := hhGen(30000, 5, 0.05)
	hh := HeavyHitters{Threshold: 0.05}
	rate, err := hh.MeasureSetReproducibility(gen, 60, 7)
	if err != nil {
		t.Fatalf("MeasureSetReproducibility: %v", err)
	}
	if rate < 0.7 {
		t.Errorf("set reproducibility %v < 0.7", rate)
	}

	// Contrast: the same selector with zero slack (deterministic
	// cutoff exactly at the threshold) must be visibly worse on this
	// boundary distribution. Implemented by comparing against a tiny
	// slack that leaves the cutoff inside the estimation noise.
	tight := HeavyHitters{Threshold: 0.05, Slack: 1e-9}
	tightRate, err := tight.MeasureSetReproducibility(gen, 60, 7)
	if err != nil {
		t.Fatalf("tight MeasureSetReproducibility: %v", err)
	}
	if tightRate >= rate {
		t.Logf("note: tight cutoff rate %v >= randomized %v (can happen by luck)", tightRate, rate)
	}
}

func TestHeavyHittersValidation(t *testing.T) {
	hh := HeavyHitters{Threshold: 0.1}
	if _, err := hh.Hits(nil, rng.New(1)); !errors.Is(err, ErrNoSamples) {
		t.Errorf("empty samples: %v", err)
	}
	if _, err := hh.Hits([]int{1}, nil); !errors.Is(err, ErrBadParam) {
		t.Errorf("nil shared: %v", err)
	}
	for _, bad := range []HeavyHitters{
		{Threshold: 0},
		{Threshold: 1.5},
		{Threshold: 0.1, Slack: 0.2},
		{Threshold: 0.1, Slack: -0.01},
	} {
		if _, err := bad.Hits([]int{1, 2}, rng.New(1)); !errors.Is(err, ErrBadParam) {
			t.Errorf("%+v: %v", bad, err)
		}
	}
}

func TestHeavyHittersSortedOutput(t *testing.T) {
	gen := hhGen(20000, 6, 0.08)
	hh := HeavyHitters{Threshold: 0.04}
	hits, err := hh.Hits(gen(rng.New(9)), rng.New(10))
	if err != nil {
		t.Fatalf("Hits: %v", err)
	}
	for i := 1; i < len(hits); i++ {
		if hits[i] <= hits[i-1] {
			t.Fatalf("hits not sorted: %v", hits)
		}
	}
}

// MeasureSetReproducibility estimates how often two fresh-sample runs
// of Hits return identical sets, mirroring MeasureReproducibility for
// set-valued outputs.
func (h HeavyHitters) MeasureSetReproducibility(
	gen func(src *rng.Source) []int,
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
		a, err := h.Hits(gen(root.DeriveIndex("sa", trial)), shared1)
		if err != nil {
			return 0, err
		}
		b, err := h.Hits(gen(root.DeriveIndex("sb", trial)), shared2)
		if err != nil {
			return 0, err
		}
		if slices.Equal(a, b) {
			agree++
		}
	}
	return float64(agree) / float64(trials), nil
}
