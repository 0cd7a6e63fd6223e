package oracle

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"lcakp/internal/knapsack"
	"lcakp/internal/rng"
	"lcakp/internal/workload"
)

// twoStackVose is the alias construction as it stood before the table
// was built over one worklist: the weights copied into a slice, three
// tests per weight, and Vose's small and large stacks as two []int.
// The one-worklist build must reproduce its tables bit for bit.
func twoStackVose(weights []float64) ([]aliasColumn, error) {
	n := len(weights)
	total := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("oracle: invalid sampling weight %v", w)
		}
		total += w
	}
	if n == 0 || total <= 0 {
		return nil, ErrNoMass
	}
	table := make([]aliasColumn, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, w := range weights {
		table[i].prob = w * float64(n) / total
		if table[i].prob < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]

		table[s].alias = l
		table[l].prob = table[l].prob + table[s].prob - 1
		if table[l].prob < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		table[i] = aliasColumn{prob: 1, alias: i}
	}
	for _, i := range small {
		table[i] = aliasColumn{prob: 1, alias: i}
	}
	return table, nil
}

// aliasFamilies generates the weight shapes the alias build is checked
// on: uniform, all equal, mostly zero, zipf (s = 1.1) and spread over
// ~2^±60.
var aliasFamilies = map[string]func(n int, src *rng.Source) []float64{
	"uniform": func(n int, src *rng.Source) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = src.Float64()
		}
		return w
	},
	"equal": func(n int, _ *rng.Source) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = 0.375
		}
		return w
	},
	"zeros": func(n int, src *rng.Source) []float64 {
		w := make([]float64, n)
		for i := range w {
			if src.Intn(10) == 0 || i == n/2 {
				w[i] = src.Float64() + 0.5
			}
		}
		return w
	},
	"zipf": func(n int, src *rng.Source) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = math.Pow(float64(1+src.Intn(n)), -1.1)
		}
		return w
	},
	"spread": func(n int, src *rng.Source) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = math.Ldexp(0.5+src.Float64(), src.Intn(121)-60)
		}
		return w
	},
}

// aliasSizes runs from a single column past 300k, through powers of two
// and their neighbours.
var aliasSizes = []int{1, 2, 3, 5, 8, 13, 100, 1023, 1024, 4097, 65_537, 300_001}

// TestAliasTableMatchesTwoStackVose holds both constructors to the
// two-stack construction: every column's prob bits and alias.
func TestAliasTableMatchesTwoStackVose(t *testing.T) {
	for name, gen := range aliasFamilies {
		for _, n := range aliasSizes {
			weights := gen(n, rng.New(uint64(n)))
			want, err := twoStackVose(weights)
			if err != nil {
				t.Fatalf("%s n=%d: reference: %v", name, n, err)
			}
			items := make([]knapsack.Item, n)
			for i, w := range weights {
				items[i] = knapsack.Item{Profit: w, Weight: 1}
			}
			fromItems, err := NewAliasSampler(&knapsack.Instance{Items: items, Capacity: 1})
			if err != nil {
				t.Fatalf("%s n=%d: NewAliasSampler: %v", name, n, err)
			}
			fromWeights, err := NewAliasSamplerWeights(weights)
			if err != nil {
				t.Fatalf("%s n=%d: NewAliasSamplerWeights: %v", name, n, err)
			}
			for label, got := range map[string][]aliasColumn{"NewAliasSampler": fromItems.table, "NewAliasSamplerWeights": fromWeights.table} {
				for i := range want {
					if math.Float64bits(got[i].prob) != math.Float64bits(want[i].prob) || got[i].alias != want[i].alias {
						t.Fatalf("%s n=%d: %s column %d = {%v, %d}, want {%v, %d}",
							name, n, label, i, got[i].prob, got[i].alias, want[i].prob, want[i].alias)
					}
				}
			}
		}
	}
}

// TestAliasBuildErrorsUnchanged holds both constructors to the
// two-stack construction's errors: ErrNoMass without positive mass,
// and the same invalid-weight error for NaN, ±Inf and negative
// weights; -0 is a valid weight.
func TestAliasBuildErrorsUnchanged(t *testing.T) {
	for _, weights := range [][]float64{
		nil,
		{},
		{0},
		{0, 0, 0},
		{math.Copysign(0, -1), 0},
		{1, math.NaN()},
		{math.Inf(1), 1},
		{1, 2, math.Inf(-1)},
		{1, -1},
		{-math.SmallestNonzeroFloat64},
		{math.Copysign(0, -1), 1},
		{math.MaxFloat64, math.SmallestNonzeroFloat64},
	} {
		_, want := twoStackVose(weights)
		items := make([]knapsack.Item, len(weights))
		for i, w := range weights {
			items[i] = knapsack.Item{Profit: w, Weight: 1}
		}
		_, fromItems := NewAliasSampler(&knapsack.Instance{Items: items, Capacity: 1})
		_, fromWeights := NewAliasSamplerWeights(weights)
		for label, got := range map[string]error{"NewAliasSampler": fromItems, "NewAliasSamplerWeights": fromWeights} {
			if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() ||
				errors.Is(got, ErrNoMass) != errors.Is(want, ErrNoMass) {
				t.Errorf("%s(%v) error = %v, want %v", label, weights, got, want)
			}
		}
	}
}

// BenchmarkNewAliasSampler builds the alias table of a zipf instance,
// the set-up every epoch seal and every instance server pays, at
// churn-batch's n = 200k and at 1M.
func BenchmarkNewAliasSampler(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"n=200k", 200_000}, {"n=1M", 1_000_000}} {
		b.Run(size.name, func(b *testing.B) {
			gen, err := workload.Generate(workload.Spec{Name: "zipf", N: size.n, Seed: 1})
			if err != nil {
				b.Fatalf("Generate: %v", err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := NewAliasSampler(gen.Float); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
