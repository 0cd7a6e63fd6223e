package core

import (
	"sort"

	"lcakp/internal/knapsack"
)

// Rule is the local decision rule extracted by CONVERT-GREEDY
// (Algorithm 3): everything a single run needs to answer "is item i in
// the solution C?" given only that item's profit and weight. Two runs
// that compute equal Rules answer every query identically, so Rule
// equality is the consistency currency of the whole system (and what
// experiment E5 measures).
type Rule struct {
	// Epsilon is the ε the rule was computed under.
	Epsilon float64
	// LargeIn holds the original indices of large items included in
	// the solution.
	LargeIn map[int]bool
	// ESmall is the efficiency threshold ẽ_{k-2} for small items, or
	// -1 when no small items are included.
	ESmall float64
	// Singleton is the paper's B_indicator: true when the solution is
	// the single first-excluded item rather than the greedy prefix.
	Singleton bool
	// Thresholds is the Equally Partitioning Sequence the rule was
	// derived from (diagnostic; not used by Decide).
	Thresholds []float64
	// LargeMass is the total profit of the collected large items
	// (diagnostic).
	LargeMass float64
}

// Decide answers whether item it (at original index i) belongs to the
// solution the rule encodes. It mirrors lines 20–24 of Algorithm 2
// combined with MAPPING-GREEDY's restriction of the efficiency test to
// small items:
//
//   - large item (p > ε²): in the solution iff its index was selected;
//   - small item (p ≤ ε², p/w ≥ ε²): in the solution iff the rule is
//     not the singleton, ESmall is set, and the item's efficiency is at
//     least ESmall;
//   - garbage: never in the solution.
//
// A small item takes one comparison, eff ≥ max(ε², ESmall), behind the
// rule-constant test !Singleton && ESmall ≥ 0. It answers as the two
// tests eff ≥ ε² and eff ≥ ESmall do for every value, NaN and ±Inf
// included, and keeps Decide within the inliner's budget, so a scan
// over every item pays no call per item.
func (r Rule) Decide(i int, it knapsack.Item) bool {
	eps2 := r.Epsilon * r.Epsilon
	if it.Profit > eps2 {
		return r.LargeIn[i]
	}
	return !r.Singleton && r.ESmall >= 0 && it.Efficiency() >= max(eps2, r.ESmall)
}

// Equal reports whether two rules encode the same decision function
// parameters (same large index set, same small threshold, same
// singleton flag). Thresholds and diagnostics are not compared.
func (r Rule) Equal(other Rule) bool {
	if r.Singleton != other.Singleton || r.Epsilon != other.Epsilon {
		return false
	}
	if !r.Singleton {
		if (r.ESmall < 0) != (other.ESmall < 0) {
			return false
		}
		if r.ESmall >= 0 && r.ESmall != other.ESmall {
			return false
		}
	}
	if len(r.LargeIn) != len(other.LargeIn) {
		return false
	}
	for i := range r.LargeIn {
		if !other.LargeIn[i] {
			return false
		}
	}
	return true
}

// LargeIndices returns the sorted original indices of included large
// items (for deterministic display and hashing).
func (r Rule) LargeIndices() []int {
	out := make([]int, 0, len(r.LargeIn))
	for i := range r.LargeIn {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// MappingGreedy materializes the full solution C the rule answers
// according to (Algorithm 4). It reads the entire instance and exists
// for validation and experiments only — an LCA never does this.
func (r Rule) MappingGreedy(in *knapsack.Instance) *knapsack.Solution {
	var chosen []int
	for i, it := range in.Items {
		if r.Decide(i, it) {
			chosen = append(chosen, i)
		}
	}
	return knapsack.NewSolution(chosen...)
}

// tildeTag identifies the provenance of an item of the constructed
// proxy instance Ĩ: either a collected large item (with its original
// index) or a synthetic small-band representative.
type tildeTag struct {
	// original index in I for large items; -1 for synthetic items.
	origIndex int
	// band is the EPS band k for synthetic items; -1 for large items.
	band int
}

// tildeItem is one item of Ĩ with provenance. eff caches the item's
// efficiency; for synthetic band representatives it is the band
// threshold ẽ exactly, avoiding the float round-trip through
// (ε², ε²/ẽ) whose last-ulp error would otherwise flip the strict
// threshold comparisons of CONVERT-GREEDY on point-mass efficiency
// distributions.
type tildeItem struct {
	item knapsack.Item
	eff  float64
	tag  tildeTag
}

// tildeInstance is the constructed instance Ĩ = (S̃, K) from step 3 of
// the Ĩ-construction algorithm, with provenance tags so CONVERT-GREEDY
// can map back to I.
type tildeInstance struct {
	items    []tildeItem
	capacity float64
}

// sortByEfficiency orders Ĩ's items by non-increasing efficiency with
// the same canonical tie-break as knapsack.ByEfficiency, so replicas
// agree on the order.
func (t *tildeInstance) sortByEfficiency() {
	sort.SliceStable(t.items, func(a, b int) bool {
		ia, ib := t.items[a].item, t.items[b].item
		ea, eb := t.items[a].eff, t.items[b].eff
		if ea != eb {
			return ea > eb
		}
		if ia.Profit != ib.Profit {
			return ia.Profit > ib.Profit
		}
		if ia.Weight != ib.Weight {
			return ia.Weight < ib.Weight
		}
		// Provenance tie-break: large items (orig index ascending)
		// before synthetic bands (band ascending).
		ta, tb := t.items[a].tag, t.items[b].tag
		if (ta.origIndex >= 0) != (tb.origIndex >= 0) {
			return ta.origIndex >= 0
		}
		if ta.origIndex != tb.origIndex {
			return ta.origIndex < tb.origIndex
		}
		return ta.band < tb.band
	})
}

// convertGreedy implements Algorithm 3 (CONVERT-GREEDY): run the
// prefix greedy on Ĩ, compare the prefix against the first excluded
// item (the classic 1/2-approximation choice), and extract the local
// decision rule. thresholds is the EPS Ĩ was built from. guard, when
// non-nil, may safely lower the small-item threshold on degenerate
// (tied-EPS) instances; see weightGuard.
func convertGreedy(t *tildeInstance, thresholds []float64, eps float64, guard *weightGuard) Rule {
	rule := Rule{
		Epsilon:    eps,
		LargeIn:    make(map[int]bool),
		ESmall:     -1,
		Thresholds: thresholds,
	}
	t.sortByEfficiency()
	n := len(t.items)
	if n == 0 {
		return rule
	}

	// j = number of items in the greedy prefix (largest j with
	// prefix weight <= K).
	j := 0
	prefixProfit, prefixWeight := 0.0, 0.0
	for j < n {
		w := t.items[j].item.Weight
		if prefixWeight+w > t.capacity {
			break
		}
		prefixWeight += w
		prefixProfit += t.items[j].item.Profit
		j++
	}

	// k = the number of EPS bands whose value GROUP is fully contained
	// in the greedy prefix, and eSmall = the group boundary dropping at
	// least the last two bands (the paper's ẽ_{k-2} backoff). For a
	// strictly decreasing EPS every group is a single band and this is
	// exactly the paper's line 3 ("largest k with ẽ_k > p_j/w_j") plus
	// lines 6-9. Grouping by value handles tied thresholds (point-mass
	// efficiency distributions, where the EPS of Definition 4.3 does
	// not exist): the decision predicate "eff ≥ e_small" can only
	// select whole value groups, so a group partially outside the
	// prefix must count as excluded or feasibility (Lemma 4.7) breaks.
	k, eSmall := groupSafeThreshold(t.items, thresholds, j)

	greedyWins := j == n || prefixProfit >= t.items[j].item.Profit
	if !greedyWins && t.items[j].tag.origIndex < 0 {
		// The first excluded item outprofits the prefix but is a
		// synthetic band representative, so it has no counterpart in
		// I to return (with a correct EPS this cannot happen: all
		// synthetic items share profit ε², cf. Lemma 4.7). Fall back
		// to the greedy prefix, which is always well-defined.
		greedyWins = true
	}

	if greedyWins {
		largeWeight := 0.0
		for pos := 0; pos < j; pos++ {
			if tag := t.items[pos].tag; tag.origIndex >= 0 {
				rule.LargeIn[tag.origIndex] = true
				largeWeight += t.items[pos].item.Weight
			}
		}
		rule.ESmall = eSmall
		if guard != nil && rule.ESmall < 0 && j == n {
			// Degenerate-case rescue: on tied-EPS instances (where the
			// EPS of Definition 4.3 does not exist) every threshold
			// carries the same value, the whole of Ĩ fits (j = n), and
			// yet the group backoff discards every small item —
			// breaking Lemma 4.8 exactly where its bound is positive.
			// Only in that all-or-nothing signature, the guard
			// re-admits a threshold whose measured weight provably
			// fits. Generic instances never reach this path, so the
			// paper behavior — and its consistency profile — is
			// untouched.
			rule.ESmall = guard.improveESmall(thresholds, rule.ESmall, t.capacity-largeWeight)
		}
		_ = k
		return rule
	}

	rule.Singleton = true
	rule.LargeIn[t.items[j].tag.origIndex] = true
	return rule
}

// groupSafeThreshold computes the band count k (over whole value
// groups fully inside the prefix of length j) and the resulting
// e_small (the deepest group boundary keeping at least two bands of
// backoff), or -1 when no group qualifies.
func groupSafeThreshold(items []tildeItem, thresholds []float64, j int) (int, float64) {
	if len(thresholds) == 0 {
		return 0, -1
	}
	bandTotal := make(map[int]int, len(thresholds))
	bandIncluded := make(map[int]int, len(thresholds))
	for pos, item := range items {
		if item.tag.band < 0 {
			continue
		}
		bandTotal[item.tag.band]++
		if pos < j {
			bandIncluded[item.tag.band]++
		}
	}

	// Value groups over the non-increasing threshold sequence.
	type group struct {
		value float64
		bands int
		safe  bool
	}
	groups := make([]group, 0, len(thresholds))
	for b, v := range thresholds {
		fullyIn := bandTotal[b] > 0 && bandIncluded[b] == bandTotal[b]
		if len(groups) > 0 && groups[len(groups)-1].value == v {
			groups[len(groups)-1].bands++
			groups[len(groups)-1].safe = groups[len(groups)-1].safe && fullyIn
			continue
		}
		groups = append(groups, group{value: v, bands: 1, safe: fullyIn})
	}

	// k = bands across the maximal safe group prefix.
	k := 0
	safeGroups := 0
	for _, g := range groups {
		if !g.safe {
			break
		}
		k += g.bands
		safeGroups++
	}

	// e_small: deepest group boundary with cumulative bands ≤ k-2.
	eSmall := -1.0
	cum := 0
	for gi := 0; gi < safeGroups; gi++ {
		cum += groups[gi].bands
		if cum > k-2 {
			break
		}
		eSmall = groups[gi].value
	}
	return k, eSmall
}
