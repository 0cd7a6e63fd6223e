package core

import (
	"math"
	"testing"

	"lcakp/internal/knapsack"
)

// tilde builds a test Ĩ from (item, origIndex, band) triples.
func tilde(capacity float64, items ...tildeItem) *tildeInstance {
	return &tildeInstance{items: items, capacity: capacity}
}

// largeItem makes an Ĩ entry for an original large item.
func largeItem(p, w float64, orig int) tildeItem {
	it := knapsack.Item{Profit: p, Weight: w}
	return tildeItem{item: it, eff: it.Efficiency(), tag: tildeTag{origIndex: orig, band: -1}}
}

// bandItem makes an Ĩ entry for a synthetic band representative.
func bandItem(eps2, e float64, band int) tildeItem {
	return tildeItem{
		item: knapsack.Item{Profit: eps2, Weight: eps2 / e},
		eff:  e,
		tag:  tildeTag{origIndex: -1, band: band},
	}
}

func TestConvertGreedyEmpty(t *testing.T) {
	rule := convertGreedy(tilde(1), nil, 0.1, nil)
	if rule.Singleton || rule.ESmall != -1 || len(rule.LargeIn) != 0 {
		t.Errorf("empty rule = %+v", rule)
	}
}

func TestConvertGreedyLargeOnlyPrefix(t *testing.T) {
	// Three large items by efficiency: orig 5 (eff 4), orig 2 (eff 2),
	// orig 9 (eff 1). Capacity fits the first two.
	ti := tilde(0.5,
		largeItem(0.4, 0.1, 5),
		largeItem(0.6, 0.3, 2),
		largeItem(0.3, 0.3, 9),
	)
	rule := convertGreedy(ti, nil, 0.1, nil)
	if rule.Singleton {
		t.Fatal("unexpected singleton")
	}
	if !rule.LargeIn[5] || !rule.LargeIn[2] || rule.LargeIn[9] {
		t.Errorf("LargeIn = %v", rule.LargeIn)
	}
	if rule.ESmall != -1 {
		t.Errorf("ESmall = %v, want -1 (no thresholds)", rule.ESmall)
	}
}

func TestConvertGreedySingletonBranch(t *testing.T) {
	// Prefix = tiny efficient item (profit 0.1), first excluded = huge
	// item (profit 0.8 > 0.1): the 1/2-approx picks the singleton.
	ti := tilde(1,
		largeItem(0.1, 0.05, 0), // eff 2, fits
		largeItem(0.8, 1.0, 1),  // eff 0.8, does not fit after item 0
	)
	rule := convertGreedy(ti, nil, 0.1, nil)
	if !rule.Singleton {
		t.Fatal("expected singleton branch")
	}
	if !rule.LargeIn[1] || len(rule.LargeIn) != 1 {
		t.Errorf("LargeIn = %v, want {1}", rule.LargeIn)
	}
	if rule.ESmall != -1 {
		t.Errorf("ESmall = %v", rule.ESmall)
	}
}

func TestConvertGreedySingletonFallbackOnSyntheticItem(t *testing.T) {
	// Degenerate: the first excluded item is synthetic. The defensive
	// branch must fall back to the greedy prefix instead of returning
	// an unanswerable index.
	const eps2 = 0.01
	ti := tilde(0.004,
		bandItem(eps2, 2, 0), // weight 0.005 > capacity: excluded immediately
	)
	rule := convertGreedy(ti, []float64{2}, 0.1, nil)
	if rule.Singleton {
		t.Fatal("singleton branch chose a synthetic item")
	}
	if len(rule.LargeIn) != 0 {
		t.Errorf("LargeIn = %v", rule.LargeIn)
	}
}

func TestConvertGreedyESmallBackoff(t *testing.T) {
	// Five bands, capacity covering four: k = 4 thresholds above the
	// cut-off, so e_small = ẽ_{k-2} = thresholds[1].
	const eps = 0.45 // floor(1/eps) = 2 copies per band
	eps2 := eps * eps
	thresholds := []float64{16, 8, 4, 2, 1}
	var items []tildeItem
	for band, e := range thresholds {
		items = append(items, bandItem(eps2, e, band), bandItem(eps2, e, band))
	}
	// Weight per band = 2 * eps2/e; cumulative: band0 0.0253, band1
	// 0.0506, band2 0.1013, band3 0.2025, band4 0.405. Capacity 0.6
	// covers through band3 plus part of band4: the cut-off lands in
	// band 4 (e=1), k = 4.
	ti := tilde(0.6, items...)
	rule := convertGreedy(ti, thresholds, eps, nil)
	if rule.Singleton {
		t.Fatal("unexpected singleton")
	}
	if rule.ESmall != thresholds[1] {
		t.Errorf("ESmall = %v, want %v (k-2 backoff)", rule.ESmall, thresholds[1])
	}
}

func TestConvertGreedyKLessThan3NoSmall(t *testing.T) {
	const eps = 0.45
	eps2 := eps * eps
	thresholds := []float64{4, 2}
	ti := tilde(0.02,
		bandItem(eps2, 4, 0), bandItem(eps2, 4, 0),
		bandItem(eps2, 2, 1), bandItem(eps2, 2, 1),
	)
	// Capacity 0.02 < first item weight... band0 item weight =
	// 0.2025/4 = 0.0506 > 0.02: empty prefix, cutoff = +inf, k = 0.
	rule := convertGreedy(ti, thresholds, eps, nil)
	if rule.ESmall != -1 {
		t.Errorf("ESmall = %v, want -1 for k < 3", rule.ESmall)
	}
}

func TestRuleDecideSemantics(t *testing.T) {
	rule := Rule{
		Epsilon: 0.1, // eps2 = 0.01
		LargeIn: map[int]bool{3: true},
		ESmall:  2.0,
	}
	tests := []struct {
		name string
		i    int
		item knapsack.Item
		want bool
	}{
		{"large in set", 3, knapsack.Item{Profit: 0.5, Weight: 0.1}, true},
		{"large not in set", 4, knapsack.Item{Profit: 0.5, Weight: 0.1}, false},
		{"small above threshold", 7, knapsack.Item{Profit: 0.005, Weight: 0.002}, true}, // eff 2.5
		{"small at threshold", 8, knapsack.Item{Profit: 0.004, Weight: 0.002}, true},    // eff 2
		{"small below threshold", 9, knapsack.Item{Profit: 0.003, Weight: 0.002}, false},
		{"garbage never", 10, knapsack.Item{Profit: 0.005, Weight: 5}, false},
		{"zero-weight small is infinitely efficient", 11, knapsack.Item{Profit: 0.005, Weight: 0}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := rule.Decide(tc.i, tc.item); got != tc.want {
				t.Errorf("Decide(%d, %+v) = %v, want %v", tc.i, tc.item, got, tc.want)
			}
		})
	}
}

func TestRuleDecideSingletonExcludesSmall(t *testing.T) {
	rule := Rule{
		Epsilon:   0.1,
		LargeIn:   map[int]bool{0: true},
		ESmall:    -1,
		Singleton: true,
	}
	if !rule.Decide(0, knapsack.Item{Profit: 0.5, Weight: 0.2}) {
		t.Error("singleton item must be in")
	}
	if rule.Decide(5, knapsack.Item{Profit: 0.005, Weight: 0.001}) {
		t.Error("small item included under singleton rule")
	}
}

func TestRuleEqual(t *testing.T) {
	base := Rule{Epsilon: 0.1, LargeIn: map[int]bool{1: true, 2: true}, ESmall: 2}
	same := Rule{Epsilon: 0.1, LargeIn: map[int]bool{2: true, 1: true}, ESmall: 2}
	if !base.Equal(same) {
		t.Error("equal rules reported unequal")
	}
	cases := []Rule{
		{Epsilon: 0.2, LargeIn: map[int]bool{1: true, 2: true}, ESmall: 2},
		{Epsilon: 0.1, LargeIn: map[int]bool{1: true}, ESmall: 2},
		{Epsilon: 0.1, LargeIn: map[int]bool{1: true, 3: true}, ESmall: 2},
		{Epsilon: 0.1, LargeIn: map[int]bool{1: true, 2: true}, ESmall: 3},
		{Epsilon: 0.1, LargeIn: map[int]bool{1: true, 2: true}, ESmall: -1},
		{Epsilon: 0.1, LargeIn: map[int]bool{1: true, 2: true}, ESmall: 2, Singleton: true},
	}
	for i, other := range cases {
		if base.Equal(other) {
			t.Errorf("case %d: unequal rules reported equal", i)
		}
	}
	// Singleton rules ignore ESmall in comparison.
	s1 := Rule{Epsilon: 0.1, LargeIn: map[int]bool{1: true}, ESmall: -1, Singleton: true}
	s2 := Rule{Epsilon: 0.1, LargeIn: map[int]bool{1: true}, ESmall: 5, Singleton: true}
	if !s1.Equal(s2) {
		t.Error("singleton rules with different ESmall should compare equal")
	}
}

func TestRuleLargeIndicesSorted(t *testing.T) {
	rule := Rule{LargeIn: map[int]bool{5: true, 1: true, 3: true}}
	got := rule.LargeIndices()
	want := []int{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LargeIndices = %v, want %v", got, want)
		}
	}
}

func TestMappingGreedyMatchesDecide(t *testing.T) {
	in := &knapsack.Instance{
		Items: []knapsack.Item{
			{Profit: 0.5, Weight: 0.2},
			{Profit: 0.005, Weight: 0.001},
			{Profit: 0.005, Weight: 0.9},
			{Profit: 0.49, Weight: 0.3},
		},
		Capacity: 0.5,
	}
	rule := Rule{Epsilon: 0.1, LargeIn: map[int]bool{0: true}, ESmall: 2}
	sol := rule.MappingGreedy(in)
	for i, it := range in.Items {
		if sol.Contains(i) != rule.Decide(i, it) {
			t.Errorf("item %d: MappingGreedy %v != Decide %v", i, sol.Contains(i), rule.Decide(i, it))
		}
	}
	if !sol.Contains(0) || !sol.Contains(1) || sol.Contains(2) || sol.Contains(3) {
		t.Errorf("solution = %v", sol)
	}
}

func TestTildeSortStableAndCanonical(t *testing.T) {
	// Items with identical efficiency/profit/weight sort by
	// provenance: large (ascending orig index) before synthetic.
	ti := tilde(1,
		bandItem(0.01, 2, 1),
		largeItem(0.01, 0.005, 7),
		largeItem(0.01, 0.005, 3),
		bandItem(0.01, 2, 0),
	)
	ti.sortByEfficiency()
	wantOrig := []int{3, 7, -1, -1}
	for i, w := range wantOrig {
		if ti.items[i].tag.origIndex != w {
			t.Fatalf("position %d: origIndex %d, want %d", i, ti.items[i].tag.origIndex, w)
		}
	}
	if ti.items[2].tag.band != 0 || ti.items[3].tag.band != 1 {
		t.Errorf("synthetic band order: %d, %d", ti.items[2].tag.band, ti.items[3].tag.band)
	}
}

func TestConvertGreedyInfiniteEfficiencyCutoff(t *testing.T) {
	// A zero-weight large item has +inf efficiency; when it is the
	// last prefix item the cut-off is +inf and k must be 0.
	ti := tilde(0.001,
		largeItem(0.5, 0, 0), // eff +inf, weight 0 fits anything
	)
	rule := convertGreedy(ti, []float64{4, 2, 1}, 0.1, nil)
	if !rule.LargeIn[0] {
		t.Error("zero-weight item not included")
	}
	if rule.ESmall != -1 {
		t.Errorf("ESmall = %v, want -1 (cutoff +inf, k=0)", rule.ESmall)
	}
	if math.IsNaN(rule.ESmall) {
		t.Error("ESmall is NaN")
	}
}

// twoTestDecide is Decide as it stood before a small item took one
// comparison: the singleton and unset-threshold tests, then eff ≥ ε²
// and eff ≥ ESmall.
func twoTestDecide(r Rule, i int, it knapsack.Item) bool {
	eps2 := r.Epsilon * r.Epsilon
	if it.Profit > eps2 {
		return r.LargeIn[i]
	}
	if r.Singleton || r.ESmall < 0 {
		return false
	}
	eff := it.Efficiency()
	return eff >= eps2 && eff >= r.ESmall
}

// TestDecideMatchesTwoTestPredicate holds Decide to the two-test
// predicate on profits above, at and below ε², zero weights (+Inf
// efficiency), p = w = 0, NaN fields, every ESmall regime (unset, below,
// at and above ε², +Inf, NaN) and the singleton flag.
func TestDecideMatchesTwoTestPredicate(t *testing.T) {
	const eps = 0.2
	eps2 := eps * eps
	nan, inf := math.NaN(), math.Inf(1)
	profits := []float64{0.5, math.Nextafter(eps2, 1), eps2, math.Nextafter(eps2, 0), 0.01, 1e-300, 0, math.Copysign(0, -1), nan}
	weights := []float64{0, math.Copysign(0, -1), 5e-324, 1e-3, eps2, 0.25, 1, math.MaxFloat64, nan}
	eSmalls := []float64{-1, 0, 0.01, eps2, math.Nextafter(eps2, 1), 0.5, 40, inf, nan}
	checked := 0
	for _, singleton := range []bool{false, true} {
		for _, eSmall := range eSmalls {
			r := Rule{Epsilon: eps, LargeIn: map[int]bool{1: true}, ESmall: eSmall, Singleton: singleton}
			for _, p := range profits {
				for _, w := range weights {
					for i := range 2 {
						it := knapsack.Item{Profit: p, Weight: w}
						if got, want := r.Decide(i, it), twoTestDecide(r, i, it); got != want {
							t.Errorf("singleton=%v ESmall=%v: Decide(%d, %+v) = %v, want %v", singleton, eSmall, i, it, got, want)
						}
						checked++
					}
				}
			}
		}
	}
	if checked != 2*len(eSmalls)*len(profits)*len(weights)*2 {
		t.Fatalf("checked %d cases", checked)
	}
}
