package oracle

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"lcakp/internal/knapsack"
	"lcakp/internal/rng"
	"lcakp/internal/workload"
)

// aliasColumn is one column of the two-stack construction's table: the
// column keeps its own index with probability prob and yields alias
// otherwise.
type aliasColumn struct {
	prob  float64
	alias int
}

// column reads column i of the sampler's table as the two-stack
// construction stores it: its exact keep probability, as a tie reads
// it, and its alias.
func (a *AliasSampler) column(i int) aliasColumn {
	return aliasColumn{prob: a.prob(i), alias: int(uint32(a.table[i]))}
}

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

// TestAliasTableMatchesTwoStackVose holds the alias table to the
// two-stack construction: every column's prob bits and alias, and the
// thr it stores, ⌊prob·2³²⌋ or all ones for a full column, which all
// but the tied draws compare their coins against.
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
			s, err := NewAliasSampler(&knapsack.Instance{Items: items, Capacity: 1})
			if err != nil {
				t.Fatalf("%s n=%d: NewAliasSampler: %v", name, n, err)
			}
			for i := range want {
				got := s.column(i)
				if math.Float64bits(got.prob) != math.Float64bits(want[i].prob) || got.alias != want[i].alias {
					t.Fatalf("%s n=%d: column %d = {%v, %d}, want {%v, %d}",
						name, n, i, got.prob, got.alias, want[i].prob, want[i].alias)
				}
				wantThr := uint32(math.MaxUint32)
				if want[i].alias != i {
					wantThr = uint32(want[i].prob * (1 << 32))
				}
				if thr := uint32(s.table[i] >> 32); thr != wantThr {
					t.Fatalf("%s n=%d: column %d (prob %v) stores thr %#x, want %#x",
						name, n, i, want[i].prob, thr, wantThr)
				}
			}
		}
	}
}

// TestAliasBuildErrorsUnchanged holds the alias build to the
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
		_, got := NewAliasSampler(&knapsack.Instance{Items: items, Capacity: 1})
		if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() ||
			errors.Is(got, ErrNoMass) != errors.Is(want, ErrNoMass) {
			t.Errorf("NewAliasSampler(%v) error = %v, want %v", weights, got, want)
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

// TestAliasTiesMatchExactTest forces ties: coins whose top 32 bits
// equal their column's thr, on both sides of the exact threshold
// ⌈prob·2⁵³⌉, for every kind of column — a small one whose prob is
// recomputed from its profit, a drained large one whose prob is a
// residual on the side list, a full one and a zero-profit one. Each
// draw by resolve, which SampleIndex and frames both take, must be the
// one the two-stack table's float64(coin)/2⁵³ >= prob test gives.
func TestAliasTiesMatchExactTest(t *testing.T) {
	kinds := map[string][2]int{} // kind → tied draws that kept, that took the alias
	for _, name := range []string{"zeros", "zipf", "spread", "uniform"} {
		const n = 4097
		weights := aliasFamilies[name](n, rng.New(n))
		want, err := twoStackVose(weights)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		s, err := aliasOver(weights)
		if err != nil {
			t.Fatalf("%s: NewAliasSampler: %v", name, err)
		}
		drained := make(map[int]bool, len(s.drained))
		for _, i := range s.drained {
			drained[int(i)] = true
		}
		for i, col := range want {
			kind := "small"
			switch {
			case col.alias == i:
				kind = "full"
			case weights[i] == 0:
				kind = "zero"
			case drained[i]:
				kind = "residual"
			}
			thr := uint64(s.table[i] >> 32)
			exact := uint64(math.Ceil(col.prob * (1 << 53)))
			for _, coin := range []uint64{thr << 21, thr<<21 | 1<<21 - 1, exact - 1, exact, exact + 1} {
				if coin>>21 != thr || coin >= 1<<53 {
					continue
				}
				wantIdx := i
				if float64(coin)/(1<<53) >= col.prob {
					wantIdx = col.alias
				}
				if got := s.resolve(i, coin); got != wantIdx {
					t.Fatalf("%s: %s column %d (prob %v), coin %#x: resolve gave %d, want %d", name, kind, i, col.prob, coin, got, wantIdx)
				}
				c := kinds[kind]
				c[b2i(wantIdx != i)]++
				kinds[kind] = c
			}
		}
	}
	t.Logf("tied draws (kept, aliased) by column kind: %v", kinds)
	for _, kind := range []string{"small", "residual"} {
		if c := kinds[kind]; c[0] == 0 || c[1] == 0 {
			t.Errorf("%s columns: %d tied draws kept and %d took the alias, want both sides of the threshold", kind, c[0], c[1])
		}
	}
	if kinds["zero"][1] == 0 {
		t.Error("no tied draw of a zero-profit column")
	}
	if kinds["full"][0] == 0 {
		t.Error("no tied draw of a full column")
	}
}

// TestAliasTableBytesPerItem holds the alias table of servebench's
// catalog shape — a zipf tail scaled to 88% of the profit plus two
// planted items of profit 0.06 — at n = 1M to at most 11 B per item:
// the 8-byte columns plus 12 B per drained large column on the side
// list.
func TestAliasTableBytesPerItem(t *testing.T) {
	const n = 1_000_000
	gen, err := workload.Generate(workload.Spec{Name: "zipf", N: n - 2, Seed: 1})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	items := make([]knapsack.Item, 0, n)
	for _, it := range gen.Float.Items {
		items = append(items, knapsack.Item{Profit: it.Profit * 0.88, Weight: it.Weight})
	}
	planted := knapsack.Item{Profit: 0.06, Weight: gen.Float.Capacity / 50}
	items = slices.Insert(items, n/3, planted)
	items = slices.Insert(items, 2*n/3, planted)
	s, err := NewAliasSampler(&knapsack.Instance{Items: items, Capacity: gen.Float.Capacity})
	if err != nil {
		t.Fatalf("NewAliasSampler: %v", err)
	}
	bytes := 8*cap(s.table) + 4*cap(s.drained) + 8*cap(s.residual)
	perItem := float64(bytes) / n
	t.Logf("table %d B, %d drained columns: %.3f B per item", bytes, len(s.drained), perItem)
	if perItem > 11 {
		t.Errorf("the alias table costs %.3f B per item, want at most 11", perItem)
	}
}
