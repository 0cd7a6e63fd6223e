package knapsack

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"lcakp/internal/rng"
)

// randomInstance draws a small random float instance for property
// tests.
func randomInstance(src *rng.Source, n int) *Instance {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			Profit: src.Float64() * 10,
			Weight: src.Float64() * 10,
		}
	}
	total := 0.0
	for _, it := range items {
		total += it.Weight
	}
	return &Instance{Items: items, Capacity: total * (0.2 + 0.6*src.Float64())}
}

// randomIntInstance draws a small random integer instance.
func randomIntInstance(src *rng.Source, n int) *IntInstance {
	items := make([]IntItem, n)
	var total int64
	for i := range items {
		items[i] = IntItem{
			Profit: int64(src.Intn(50)) + 1,
			Weight: int64(src.Intn(50)) + 1,
		}
		total += items[i].Weight
	}
	c := total / 3
	if c < 1 {
		c = 1
	}
	return &IntInstance{Items: items, Capacity: c}
}

func TestByEfficiencyOrdering(t *testing.T) {
	in := &Instance{
		Items: []Item{
			{Profit: 1, Weight: 2},   // eff 0.5
			{Profit: 4, Weight: 2},   // eff 2
			{Profit: 3, Weight: 3},   // eff 1
			{Profit: 2, Weight: 0},   // eff +inf
			{Profit: 0, Weight: 0.5}, // eff 0
		},
		Capacity: 5,
	}
	order := ByEfficiency(in)
	want := []int{3, 1, 2, 0, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ByEfficiency = %v, want %v", order, want)
		}
	}
}

func TestByEfficiencyTieBreakDeterministic(t *testing.T) {
	// Equal efficiencies: higher profit first, then lower weight, then
	// lower index.
	in := &Instance{
		Items: []Item{
			{Profit: 2, Weight: 2}, // eff 1
			{Profit: 4, Weight: 4}, // eff 1, higher profit
			{Profit: 2, Weight: 2}, // eff 1, duplicate of 0
		},
		Capacity: 10,
	}
	order := ByEfficiency(in)
	want := []int{1, 0, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ByEfficiency = %v, want %v", order, want)
		}
	}
}

func TestGreedySimple(t *testing.T) {
	in := &Instance{
		Items: []Item{
			{Profit: 10, Weight: 5}, // eff 2
			{Profit: 6, Weight: 2},  // eff 3
			{Profit: 3, Weight: 3},  // eff 1
		},
		Capacity: 7,
	}
	res := Greedy(in)
	// Greedy order: item1 (w2), item0 (w5) → full. item2 skipped.
	if !slices.Equal(res.Solution.Indices(), []int{0, 1}) {
		t.Errorf("Greedy solution = %v", res.Solution)
	}
	if res.Profit != 16 || res.Weight != 7 {
		t.Errorf("Greedy result = %+v", res)
	}
}

func TestGreedyPrefixStopsAtFirstMisfit(t *testing.T) {
	in := &Instance{
		Items: []Item{
			{Profit: 6, Weight: 2},  // eff 3, taken
			{Profit: 10, Weight: 8}, // eff 1.25, does not fit after item 0
			{Profit: 3, Weight: 3},  // eff 1, would fit but prefix stopped
		},
		Capacity: 7,
	}
	prefix, firstOut, order := GreedyPrefix(in)
	if !slices.Equal(prefix.Indices(), []int{0}) {
		t.Errorf("prefix = %v", prefix)
	}
	if firstOut != 1 || order[firstOut] != 1 {
		t.Errorf("firstOut = %d (order %v)", firstOut, order)
	}
	// Plain greedy, by contrast, skips and continues.
	if !slices.Equal(Greedy(in).Solution.Indices(), []int{0, 2}) {
		t.Errorf("Greedy = %v", Greedy(in).Solution)
	}
}

func TestGreedyPrefixAllFit(t *testing.T) {
	in := &Instance{Items: []Item{{1, 1}, {2, 1}}, Capacity: 5}
	prefix, firstOut, _ := GreedyPrefix(in)
	if firstOut != 2 || prefix.Len() != 2 {
		t.Errorf("all-fit prefix = %v, firstOut = %d", prefix, firstOut)
	}
}

func TestFractionalExact(t *testing.T) {
	in := &Instance{
		Items: []Item{
			{Profit: 6, Weight: 2}, // eff 3
			{Profit: 8, Weight: 4}, // eff 2
			{Profit: 2, Weight: 2}, // eff 1
		},
		Capacity: 4,
	}
	res := Fractional(in)
	// Take item 0 fully (w2), then half of item 1: 6 + 4 = 10.
	if math.Abs(res.Value-10) > 1e-12 {
		t.Errorf("Fractional value = %v, want 10", res.Value)
	}
	if res.CutIndex != 1 || math.Abs(res.CutFraction-0.5) > 1e-12 {
		t.Errorf("cut = %d @ %v", res.CutIndex, res.CutFraction)
	}
	if res.CutEfficiency != 2 {
		t.Errorf("CutEfficiency = %v, want 2", res.CutEfficiency)
	}
}

func TestFractionalAllFit(t *testing.T) {
	in := &Instance{Items: []Item{{5, 1}, {3, 1}}, Capacity: 10}
	res := Fractional(in)
	if res.Value != 8 || res.CutIndex != -1 {
		t.Errorf("Fractional = %+v", res)
	}
}

func TestHalfBeatsGreedyOnAdversarialInstance(t *testing.T) {
	// Classic greedy failure: one tiny efficient item crowds out the
	// big valuable one.
	in := &Instance{
		Items: []Item{
			{Profit: 1, Weight: 1},    // eff 1, greedy takes this
			{Profit: 90, Weight: 100}, // eff 0.9, then this won't fit
		},
		Capacity: 100,
	}
	greedy := Greedy(in)
	half := Half(in)
	if greedy.Profit != 1 {
		t.Fatalf("greedy profit = %v (test setup broken)", greedy.Profit)
	}
	if half.Profit != 90 {
		t.Errorf("half profit = %v, want 90 (the singleton)", half.Profit)
	}
}

func TestHalfApproximationProperty(t *testing.T) {
	// Property: Half >= OPT/2 whenever every item fits individually.
	root := rng.New(101)
	for trial := 0; trial < 300; trial++ {
		src := root.DeriveIndex("half", trial)
		n := 2 + src.Intn(11)
		in := randomInstance(src, n)
		// Ensure every item fits on its own (the 1/2-approx
		// precondition, also Definition 2.2's weight <= K).
		for i := range in.Items {
			if in.Items[i].Weight > in.Capacity {
				in.Items[i].Weight = in.Capacity * src.Float64()
			}
		}
		opt, err := Exhaustive(in)
		if err != nil {
			t.Fatalf("Exhaustive: %v", err)
		}
		half := Half(in)
		if half.Profit < opt.Profit/2-1e-9 {
			t.Fatalf("trial %d: half %v < OPT/2 = %v (instance %+v)",
				trial, half.Profit, opt.Profit/2, in)
		}
		if !half.Solution.Feasible(in) {
			t.Fatalf("trial %d: half solution infeasible", trial)
		}
	}
}

func TestFractionalUpperBoundsExhaustive(t *testing.T) {
	root := rng.New(77)
	for trial := 0; trial < 300; trial++ {
		src := root.DeriveIndex("frac", trial)
		in := randomInstance(src, 2+src.Intn(10))
		opt, err := Exhaustive(in)
		if err != nil {
			t.Fatalf("Exhaustive: %v", err)
		}
		if frac := Fractional(in); frac.Value < opt.Profit-1e-9 {
			t.Fatalf("trial %d: fractional %v < integral OPT %v", trial, frac.Value, opt.Profit)
		}
	}
}

func TestBranchAndBoundMatchesExhaustive(t *testing.T) {
	root := rng.New(55)
	for trial := 0; trial < 200; trial++ {
		src := root.DeriveIndex("bnb", trial)
		in := randomInstance(src, 2+src.Intn(12))
		want, err := Exhaustive(in)
		if err != nil {
			t.Fatalf("Exhaustive: %v", err)
		}
		got, err := BranchAndBound(in, 1<<20)
		if err != nil {
			t.Fatalf("BranchAndBound: %v", err)
		}
		if math.Abs(got.Profit-want.Profit) > 1e-9 {
			t.Fatalf("trial %d: B&B %v != exhaustive %v", trial, got.Profit, want.Profit)
		}
		if !got.Solution.Feasible(in) {
			t.Fatalf("trial %d: B&B solution infeasible", trial)
		}
	}
}

// floatOf converts an integer instance to a float64 Instance without
// normalization.
func floatOf(in *IntInstance) *Instance {
	items := make([]Item, len(in.Items))
	for i, it := range in.Items {
		items[i] = Item{Profit: float64(it.Profit), Weight: float64(it.Weight)}
	}
	return &Instance{Items: items, Capacity: float64(in.Capacity)}
}

func TestDPByWeightMatchesExhaustive(t *testing.T) {
	root := rng.New(91)
	for trial := 0; trial < 200; trial++ {
		src := root.DeriveIndex("dpw", trial)
		intIn := randomIntInstance(src, 2+src.Intn(12))
		got, err := DPByWeight(intIn)
		if err != nil {
			t.Fatalf("DPByWeight: %v", err)
		}
		want, err := Exhaustive(floatOf(intIn))
		if err != nil {
			t.Fatalf("Exhaustive: %v", err)
		}
		if got.Profit != want.Profit {
			t.Fatalf("trial %d: DP %v != exhaustive %v", trial, got.Profit, want.Profit)
		}
		if got.Weight > float64(intIn.Capacity) {
			t.Fatalf("trial %d: DP solution overweight", trial)
		}
	}
}

func TestDPByProfitMatchesDPByWeight(t *testing.T) {
	root := rng.New(92)
	for trial := 0; trial < 200; trial++ {
		src := root.DeriveIndex("dpp", trial)
		intIn := randomIntInstance(src, 2+src.Intn(15))
		byW, err := DPByWeight(intIn)
		if err != nil {
			t.Fatalf("DPByWeight: %v", err)
		}
		byP, err := DPByProfit(intIn)
		if err != nil {
			t.Fatalf("DPByProfit: %v", err)
		}
		if byW.Profit != byP.Profit {
			t.Fatalf("trial %d: weight-DP %v != profit-DP %v", trial, byW.Profit, byP.Profit)
		}
	}
}

func TestFPTASGuarantee(t *testing.T) {
	root := rng.New(93)
	for _, eps := range []float64{0.5, 0.2, 0.1} {
		for trial := 0; trial < 100; trial++ {
			src := root.DeriveIndex("fptas", trial)
			in := randomInstance(src, 2+src.Intn(10))
			for i := range in.Items {
				if in.Items[i].Weight > in.Capacity {
					in.Items[i].Weight = in.Capacity * src.Float64()
				}
			}
			opt, err := Exhaustive(in)
			if err != nil {
				t.Fatalf("Exhaustive: %v", err)
			}
			got, err := FPTAS(in, eps)
			if err != nil {
				t.Fatalf("FPTAS: %v", err)
			}
			if got.Profit < (1-eps)*opt.Profit-1e-9 {
				t.Fatalf("eps=%v trial %d: FPTAS %v < (1-eps)OPT = %v",
					eps, trial, got.Profit, (1-eps)*opt.Profit)
			}
			if !got.Solution.Feasible(in) {
				t.Fatalf("eps=%v trial %d: FPTAS solution infeasible", eps, trial)
			}
		}
	}
}

func TestFPTASRejectsBadEps(t *testing.T) {
	in := &Instance{Items: []Item{{1, 1}}, Capacity: 1}
	for _, eps := range []float64{0, 1, -0.5, 1.5} {
		if _, err := FPTAS(in, eps); err == nil {
			t.Errorf("FPTAS(eps=%v) succeeded", eps)
		}
	}
}

func TestExhaustiveTooLarge(t *testing.T) {
	items := make([]Item, ExhaustiveLimit+1)
	for i := range items {
		items[i] = Item{Profit: 1, Weight: 1}
	}
	in := &Instance{Items: items, Capacity: 5}
	if _, err := Exhaustive(in); !errors.Is(err, ErrTooLarge) {
		t.Errorf("Exhaustive error = %v, want ErrTooLarge", err)
	}
}

func TestDPTooLarge(t *testing.T) {
	in := &IntInstance{
		Items:    []IntItem{{Profit: 1, Weight: 1}},
		Capacity: 1 << 40,
	}
	if _, err := DPByWeight(in); !errors.Is(err, ErrTooLarge) {
		t.Errorf("DPByWeight error = %v, want ErrTooLarge", err)
	}
}

func TestGreedySolutionsFeasibleQuick(t *testing.T) {
	// Property-based via testing/quick: for arbitrary non-negative
	// inputs, every solver returns a feasible solution.
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		src := rng.New(seed)
		in := randomInstance(src, n)
		for _, res := range []Result{Greedy(in), Half(in)} {
			if !res.Solution.Feasible(in) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGreedyDominatedByFractionalQuick(t *testing.T) {
	// Property: greedy profit <= fractional optimum (which upper
	// bounds every feasible integral solution).
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%15) + 1
		src := rng.New(seed)
		in := randomInstance(src, n)
		return Greedy(in).Profit <= Fractional(in).Value+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestProfitDensityBound(t *testing.T) {
	in := &Instance{
		Items: []Item{
			{Profit: 6, Weight: 2}, // eff 3
			{Profit: 8, Weight: 4}, // eff 2
		},
		Capacity: 4,
	}
	order := ByEfficiency(in)
	if got := ProfitDensityBound(in, order, 0, 4); math.Abs(got-10) > 1e-12 {
		t.Errorf("bound from 0 = %v, want 10", got)
	}
	if got := ProfitDensityBound(in, order, 1, 2); math.Abs(got-4) > 1e-12 {
		t.Errorf("bound from 1 = %v, want 4", got)
	}
	if got := ProfitDensityBound(in, order, 2, 2); got != 0 {
		t.Errorf("empty bound = %v, want 0", got)
	}
}

func TestIntInstanceValidate(t *testing.T) {
	if err := (&IntInstance{Capacity: 5}).Validate(); !errors.Is(err, ErrEmptyInstance) {
		t.Errorf("empty: %v", err)
	}
	if err := (&IntInstance{Items: []IntItem{{1, 1}}, Capacity: -1}).Validate(); !errors.Is(err, ErrNegativeCapacity) {
		t.Errorf("negative capacity: %v", err)
	}
	if err := (&IntInstance{Items: []IntItem{{-1, 1}}, Capacity: 1}).Validate(); !errors.Is(err, ErrInvalidItem) {
		t.Errorf("negative profit: %v", err)
	}
}

func TestIntInstanceNormalized(t *testing.T) {
	intIn := &IntInstance{
		Items:    []IntItem{{Profit: 3, Weight: 1}, {Profit: 1, Weight: 3}},
		Capacity: 2,
	}
	norm, scale, err := intIn.Normalized()
	if err != nil {
		t.Fatalf("Normalized: %v", err)
	}
	if !norm.IsNormalized() {
		t.Errorf("profits not normalized: %v", norm.TotalProfit())
	}
	if math.Abs(norm.TotalWeight()-1) > 1e-12 {
		t.Errorf("weights not normalized: %v", norm.TotalWeight())
	}
	if math.Abs(scale-0.25) > 1e-15 {
		t.Errorf("scale = %v, want 0.25", scale)
	}
	if math.Abs(norm.Capacity-0.5) > 1e-12 {
		t.Errorf("capacity = %v, want 0.5", norm.Capacity)
	}
}

func TestMeetInTheMiddleMatchesExhaustive(t *testing.T) {
	root := rng.New(95)
	for trial := 0; trial < 300; trial++ {
		src := root.DeriveIndex("mitm", trial)
		in := randomInstance(src, 1+src.Intn(14))
		want, err := Exhaustive(in)
		if err != nil {
			t.Fatalf("Exhaustive: %v", err)
		}
		got, err := MeetInTheMiddle(in)
		if err != nil {
			t.Fatalf("MeetInTheMiddle: %v", err)
		}
		if math.Abs(got.Profit-want.Profit) > 1e-9 {
			t.Fatalf("trial %d: MITM %v != exhaustive %v (instance %+v)",
				trial, got.Profit, want.Profit, in)
		}
		if !got.Solution.Feasible(in) {
			t.Fatalf("trial %d: MITM solution infeasible", trial)
		}
		// The reported profit must match the solution's actual profit.
		if math.Abs(got.Solution.Profit(in)-got.Profit) > 1e-9 {
			t.Fatalf("trial %d: reported profit %v != solution profit %v",
				trial, got.Profit, got.Solution.Profit(in))
		}
	}
}

func TestMeetInTheMiddleLargerThanExhaustive(t *testing.T) {
	// n = 34 is far beyond Exhaustive's limit but routine for MITM;
	// verify against branch-and-bound.
	src := rng.New(96)
	in := randomInstance(src, 34)
	mitm, err := MeetInTheMiddle(in)
	if err != nil {
		t.Fatalf("MeetInTheMiddle: %v", err)
	}
	bb, err := BranchAndBound(in, 1<<22)
	if err != nil {
		t.Fatalf("BranchAndBound: %v", err)
	}
	if math.Abs(mitm.Profit-bb.Profit) > 1e-9 {
		t.Errorf("MITM %v != B&B %v", mitm.Profit, bb.Profit)
	}
}

func TestMeetInTheMiddleTooLarge(t *testing.T) {
	items := make([]Item, MeetLimit+1)
	for i := range items {
		items[i] = Item{Profit: 1, Weight: 1}
	}
	in := &Instance{Items: items, Capacity: 5}
	if _, err := MeetInTheMiddle(in); !errors.Is(err, ErrTooLarge) {
		t.Errorf("error = %v, want ErrTooLarge", err)
	}
}

func TestMeetInTheMiddleSingleItem(t *testing.T) {
	in := &Instance{Items: []Item{{Profit: 5, Weight: 2}}, Capacity: 3}
	res, err := MeetInTheMiddle(in)
	if err != nil {
		t.Fatalf("MeetInTheMiddle: %v", err)
	}
	if res.Profit != 5 || !res.Solution.Contains(0) {
		t.Errorf("result = %+v", res)
	}
	// And when it does not fit:
	in.Capacity = 1
	res, err = MeetInTheMiddle(in)
	if err != nil {
		t.Fatalf("MeetInTheMiddle: %v", err)
	}
	if res.Profit != 0 || res.Solution.Len() != 0 {
		t.Errorf("over-capacity result = %+v", res)
	}
}
