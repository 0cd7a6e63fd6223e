package oracle

import (
	"context"
	"errors"
	"math"
	"testing"

	"lcakp/internal/knapsack"
	"lcakp/internal/rng"
)

// testInstance builds a tiny normalized instance for oracle tests.
func testInstance(t *testing.T) *knapsack.Instance {
	t.Helper()
	in := &knapsack.Instance{
		Items: []knapsack.Item{
			{Profit: 0.5, Weight: 0.3},
			{Profit: 0.3, Weight: 0.4},
			{Profit: 0.2, Weight: 0.3},
		},
		Capacity: 0.5,
	}
	return in
}

func TestSliceOracleQuery(t *testing.T) {
	in := testInstance(t)
	o, err := NewSliceOracle(in)
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	if o.N() != 3 || o.Capacity() != 0.5 {
		t.Errorf("N=%d Capacity=%v", o.N(), o.Capacity())
	}
	it, err := o.QueryItem(context.Background(), 1)
	if err != nil || it != in.Items[1] {
		t.Errorf("QueryItem(1) = %+v, %v", it, err)
	}
	for _, bad := range []int{-1, 3, 100} {
		if _, err := o.QueryItem(context.Background(), bad); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("QueryItem(%d) error = %v, want ErrOutOfRange", bad, err)
		}
	}
}

func TestSliceOracleSampleRevealsItem(t *testing.T) {
	in := testInstance(t)
	o, err := NewSliceOracle(in)
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	src := rng.New(1)
	for d := 0; d < 100; d++ {
		idx, item, err := o.Sample(context.Background(), src)
		if err != nil {
			t.Fatalf("Sample: %v", err)
		}
		if item != in.Items[idx] {
			t.Fatalf("Sample revealed %+v for index %d, want %+v", item, idx, in.Items[idx])
		}
	}
}

// aliasOver builds the alias sampler of an instance whose profits are
// weights.
func aliasOver(weights []float64) (*AliasSampler, error) {
	items := make([]knapsack.Item, len(weights))
	for i, w := range weights {
		items[i] = knapsack.Item{Profit: w, Weight: 1}
	}
	return NewAliasSampler(&knapsack.Instance{Items: items, Capacity: 1})
}

// checkSamplerFrequencies draws from s and verifies the empirical
// distribution tracks weights.
func checkSamplerFrequencies(t *testing.T, s *AliasSampler, weights []float64, seed uint64) {
	t.Helper()
	total := 0.0
	for _, w := range weights {
		total += w
	}
	src := rng.New(seed)
	const draws = 200000
	counts := make([]int, len(weights))
	for d := 0; d < draws; d++ {
		idx, err := s.SampleIndex(context.Background(), src)
		if err != nil {
			t.Fatalf("SampleIndex: %v", err)
		}
		if idx < 0 || idx >= len(weights) {
			t.Fatalf("index %d out of range", idx)
		}
		counts[idx]++
	}
	for i, c := range counts {
		want := weights[i] / total
		got := float64(c) / draws
		if math.Abs(got-want) > 0.01 {
			t.Errorf("index %d: frequency %v, want %v", i, got, want)
		}
	}
}

func TestAliasSamplerFrequencies(t *testing.T) {
	weights := []float64{0.5, 0.25, 0.15, 0.1}
	s, err := aliasOver(weights)
	if err != nil {
		t.Fatalf("NewAliasSampler: %v", err)
	}
	checkSamplerFrequencies(t, s, weights, 3)
}

func TestAliasSamplerSkewed(t *testing.T) {
	// One dominant weight plus a long tail of equal tiny weights.
	weights := make([]float64, 100)
	weights[0] = 100
	for i := 1; i < 100; i++ {
		weights[i] = 0.1
	}
	s, err := aliasOver(weights)
	if err != nil {
		t.Fatalf("NewAliasSampler: %v", err)
	}
	src := rng.New(5)
	head := 0
	const draws = 100000
	for d := 0; d < draws; d++ {
		idx, err := s.SampleIndex(context.Background(), src)
		if err != nil {
			t.Fatalf("SampleIndex: %v", err)
		}
		if idx == 0 {
			head++
		}
	}
	want := 100.0 / (100 + 9.9)
	if got := float64(head) / draws; math.Abs(got-want) > 0.01 {
		t.Errorf("head frequency %v, want %v", got, want)
	}
}

func TestAliasSamplerZeroWeightNeverDrawn(t *testing.T) {
	weights := []float64{1, 0, 2, 0}
	s, err := aliasOver(weights)
	if err != nil {
		t.Fatalf("NewAliasSampler: %v", err)
	}
	src := rng.New(7)
	for d := 0; d < 50000; d++ {
		idx, err := s.SampleIndex(context.Background(), src)
		if err != nil {
			t.Fatalf("SampleIndex: %v", err)
		}
		if idx == 1 || idx == 3 {
			t.Fatalf("zero-weight index %d drawn", idx)
		}
	}
}

func TestAliasSamplerErrors(t *testing.T) {
	if _, err := aliasOver(nil); !errors.Is(err, ErrNoMass) {
		t.Errorf("nil weights: %v", err)
	}
	if _, err := aliasOver([]float64{0, 0}); !errors.Is(err, ErrNoMass) {
		t.Errorf("zero weights: %v", err)
	}
	if _, err := aliasOver([]float64{1, -1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := aliasOver([]float64{math.NaN()}); err == nil {
		t.Error("NaN weight accepted")
	}
}
