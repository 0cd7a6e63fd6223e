package knapsack

import (
	"errors"
	"math"
	"testing"
)

func TestItemEfficiency(t *testing.T) {
	tests := []struct {
		name string
		item Item
		want float64
	}{
		{"regular", Item{Profit: 6, Weight: 3}, 2},
		{"unit", Item{Profit: 1, Weight: 1}, 1},
		{"zero profit", Item{Profit: 0, Weight: 5}, 0},
		{"zero weight positive profit", Item{Profit: 2, Weight: 0}, math.Inf(1)},
		{"zero profit zero weight", Item{Profit: 0, Weight: 0}, 0},
		{"tiny", Item{Profit: 1e-9, Weight: 1e-3}, 1e-6},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.item.Efficiency(); got != tc.want {
				t.Errorf("Efficiency() = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestInstanceValidate(t *testing.T) {
	tests := []struct {
		name    string
		items   []Item
		cap     float64
		wantErr error
	}{
		{"valid", []Item{{1, 1}}, 1, nil},
		{"empty", nil, 1, ErrEmptyInstance},
		{"negative capacity", []Item{{1, 1}}, -1, ErrNegativeCapacity},
		{"nan capacity", []Item{{1, 1}}, math.NaN(), ErrNegativeCapacity},
		{"negative profit", []Item{{-1, 1}}, 1, ErrInvalidItem},
		{"negative weight", []Item{{1, -1}}, 1, ErrInvalidItem},
		{"inf profit", []Item{{math.Inf(1), 1}}, 1, ErrInvalidItem},
		{"nan weight", []Item{{1, math.NaN()}}, 1, ErrInvalidItem},
		{"zero capacity ok", []Item{{1, 0}}, 0, nil},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewInstance(tc.items, tc.cap)
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("NewInstance: %v", err)
				}
				return
			}
			if !errors.Is(err, tc.wantErr) {
				t.Errorf("NewInstance error = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

func TestNormalized(t *testing.T) {
	in := &Instance{
		Items:    []Item{{Profit: 3, Weight: 4}, {Profit: 1, Weight: 12}},
		Capacity: 8,
	}
	norm, err := in.Normalized()
	if err != nil {
		t.Fatalf("Normalized: %v", err)
	}
	if !norm.IsNormalized() {
		t.Errorf("total profit = %v, want 1", norm.TotalProfit())
	}
	if got := norm.TotalWeight(); math.Abs(got-1) > 1e-12 {
		t.Errorf("total weight = %v, want 1", got)
	}
	if got, want := norm.Capacity, 0.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("capacity = %v, want %v", got, want)
	}
	// Efficiency ordering must be preserved by normalization up to a
	// global constant: item 0 is 9x more efficient before, and the
	// ratio of efficiencies is scale-invariant.
	r0 := norm.Items[0].Efficiency() / norm.Items[1].Efficiency()
	want := in.Items[0].Efficiency() / in.Items[1].Efficiency()
	if math.Abs(r0-want) > 1e-9 {
		t.Errorf("efficiency ratio changed: %v vs %v", r0, want)
	}
	// The original is untouched.
	if in.Items[0].Profit != 3 {
		t.Errorf("original mutated: %+v", in.Items[0])
	}
}

func TestNormalizedErrors(t *testing.T) {
	zeroProfit := &Instance{Items: []Item{{0, 1}}, Capacity: 1}
	if _, err := zeroProfit.Normalized(); err == nil {
		t.Error("Normalized() on zero-profit instance succeeded")
	}
	zeroWeight := &Instance{Items: []Item{{1, 0}}, Capacity: 1}
	if _, err := zeroWeight.Normalized(); err == nil {
		t.Error("Normalized() on zero-weight instance succeeded")
	}
}

func TestClassify(t *testing.T) {
	const eps = 0.1 // eps^2 = 0.01
	tests := []struct {
		name string
		item Item
		want Class
	}{
		{"large", Item{Profit: 0.02, Weight: 0.5}, ClassLarge},
		{"boundary profit is not large", Item{Profit: 0.01, Weight: 1e-9}, ClassSmall},
		{"small", Item{Profit: 0.001, Weight: 0.01}, ClassSmall},
		{"small above efficiency threshold", Item{Profit: 0.0002, Weight: 0.01}, ClassSmall},
		{"garbage", Item{Profit: 0.0001, Weight: 0.1}, ClassGarbage},
		{"zero profit garbage", Item{Profit: 0, Weight: 0.1}, ClassGarbage},
		{"zero weight small", Item{Profit: 0.005, Weight: 0}, ClassSmall},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Classify(tc.item, eps); got != tc.want {
				t.Errorf("Classify(%+v) = %v, want %v", tc.item, got, tc.want)
			}
		})
	}
}

func TestPartitionCoversAllItems(t *testing.T) {
	in := &Instance{
		Items: []Item{
			{Profit: 0.5, Weight: 0.2},
			{Profit: 0.005, Weight: 0.001},
			{Profit: 0.001, Weight: 0.9},
			{Profit: 0.3, Weight: 0.1},
		},
		Capacity: 0.5,
	}
	large, small, garbage := Partition(in, 0.1)
	total := len(large) + len(small) + len(garbage)
	if total != in.N() {
		t.Fatalf("partition covers %d of %d items", total, in.N())
	}
	seen := map[int]bool{}
	for _, idx := range append(append(append([]int{}, large...), small...), garbage...) {
		if seen[idx] {
			t.Fatalf("index %d in two classes", idx)
		}
		seen[idx] = true
	}
	if len(large) != 2 || len(small) != 1 || len(garbage) != 1 {
		t.Errorf("partition sizes = %d/%d/%d, want 2/1/1", len(large), len(small), len(garbage))
	}
}

func TestProfitWeightOf(t *testing.T) {
	in := &Instance{
		Items:    []Item{{1, 10}, {2, 20}, {3, 30}},
		Capacity: 100,
	}
	if got := in.ProfitOf([]int{0, 2}); got != 4 {
		t.Errorf("ProfitOf = %v, want 4", got)
	}
	if got := in.WeightOf([]int{1}); got != 20 {
		t.Errorf("WeightOf = %v, want 20", got)
	}
	if got := in.ProfitOf(nil); got != 0 {
		t.Errorf("ProfitOf(nil) = %v, want 0", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	in := &Instance{Items: []Item{{1, 1}}, Capacity: 2}
	clone := in.Clone()
	clone.Items[0].Profit = 99
	clone.Capacity = 50
	if in.Items[0].Profit != 1 || in.Capacity != 2 {
		t.Errorf("Clone shares storage: %+v", in)
	}
}

// TestItemValidRanges holds Item.valid's two range comparisons per
// field to the six tests it replaced, for ±0, subnormals, MaxFloat64,
// ±Inf, NaN and negatives in each field: an item is valid iff both
// fields lie in [0, MaxFloat64].
func TestItemValidRanges(t *testing.T) {
	sixTests := func(it Item) bool {
		return it.Profit >= 0 && it.Weight >= 0 &&
			!math.IsInf(it.Profit, 0) && !math.IsNaN(it.Profit) &&
			!math.IsInf(it.Weight, 0) && !math.IsNaN(it.Weight)
	}
	good := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0x1p-1030, 0.5, 1, math.MaxFloat64}
	bad := []float64{math.Inf(1), math.Inf(-1), math.NaN(), -math.SmallestNonzeroFloat64, -1, -math.MaxFloat64}
	values := append(append([]float64(nil), good...), bad...)
	for pi, p := range values {
		for wi, w := range values {
			it := Item{Profit: p, Weight: w}
			want := pi < len(good) && wi < len(good)
			if got := it.valid(); got != want || got != sixTests(it) {
				t.Errorf("Item{%v, %v}.valid() = %v, want %v (six tests: %v)", p, w, got, want, sixTests(it))
			}
		}
	}
}
