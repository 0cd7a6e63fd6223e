package knapsack

import (
	"math"
	"sort"
)

// ByEfficiency returns the instance's item indices sorted by
// non-increasing efficiency. Ties are broken deterministically by
// (higher profit, lower weight, lower index) so that every component of
// the system — solvers, the LCA decision rule, and independent replicas
// — sees the same canonical order.
func ByEfficiency(in *Instance) []int {
	order := make([]int, len(in.Items))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := in.Items[order[a]], in.Items[order[b]]
		ea, eb := ia.Efficiency(), ib.Efficiency()
		if ea != eb {
			return ea > eb
		}
		if ia.Profit != ib.Profit {
			return ia.Profit > ib.Profit
		}
		if ia.Weight != ib.Weight {
			return ia.Weight < ib.Weight
		}
		return order[a] < order[b]
	})
	return order
}

// Greedy runs the classic greedy heuristic: scan items in
// non-increasing efficiency order and take every item that still fits.
// It returns the resulting feasible solution. Greedy alone has no
// bounded approximation ratio for 0/1 Knapsack; see Half for the
// standard fix.
func Greedy(in *Instance) Result {
	var chosen []int
	remaining := in.Capacity
	for _, i := range ByEfficiency(in) {
		w := in.Items[i].Weight
		if w <= remaining {
			chosen = append(chosen, i)
			remaining -= w
		}
	}
	return newResult(in, NewSolution(chosen...))
}

// GreedyPrefix runs the *prefix* greedy used by the paper's
// CONVERT-GREEDY: scan items in non-increasing efficiency order and
// stop at the first item that does not fit (rather than skipping it and
// continuing). It returns the prefix solution, the index (in the
// sorted order) of the first excluded item, and the sorted order
// itself. If every item fits, firstOut is len(items).
func GreedyPrefix(in *Instance) (prefix *Solution, firstOut int, order []int) {
	order = ByEfficiency(in)
	remaining := in.Capacity
	var chosen []int
	for pos, i := range order {
		w := in.Items[i].Weight
		if w > remaining {
			return NewSolution(chosen...), pos, order
		}
		chosen = append(chosen, i)
		remaining -= w
	}
	return NewSolution(chosen...), len(order), order
}

// FractionalResult is the optimum of the Fractional Knapsack
// relaxation: the greedy prefix plus a fractional share of the cut-off
// item.
type FractionalResult struct {
	// Value is the optimal fractional objective value. It upper-bounds
	// the 0/1 optimum and is used as the bounding function in
	// branch-and-bound.
	Value float64
	// CutIndex is the original index of the partially taken item, or
	// -1 if no item is fractional (everything fit).
	CutIndex int
	// CutFraction is the fraction of the cut item included, in [0, 1).
	CutFraction float64
	// CutEfficiency is the efficiency of the cut item — the paper's
	// "efficiency cut-off" of the greedy solution. It is 0 when every
	// item fits.
	CutEfficiency float64
}

// Fractional solves the Fractional Knapsack relaxation exactly via the
// greedy algorithm (sort by efficiency, fill greedily, split the first
// item that does not fit).
func Fractional(in *Instance) FractionalResult {
	remaining := in.Capacity
	value := 0.0
	for _, i := range ByEfficiency(in) {
		it := in.Items[i]
		if it.Weight <= remaining {
			value += it.Profit
			remaining -= it.Weight
			continue
		}
		if remaining > 0 && it.Weight > 0 {
			frac := remaining / it.Weight
			return FractionalResult{
				Value:         value + float64(frac*it.Profit),
				CutIndex:      i,
				CutFraction:   frac,
				CutEfficiency: it.Efficiency(),
			}
		}
		return FractionalResult{
			Value:         value,
			CutIndex:      i,
			CutFraction:   0,
			CutEfficiency: it.Efficiency(),
		}
	}
	return FractionalResult{Value: value, CutIndex: -1}
}

// Half runs the standard 1/2-approximation for 0/1 Knapsack: the better
// of (a) the greedy prefix and (b) the singleton consisting of the
// first item the prefix excludes, provided it fits on its own
// ([WS11, Exercise 3.1]). The returned solution has profit at least
// OPT/2 whenever every individual item fits in the knapsack.
func Half(in *Instance) Result {
	prefix, firstOut, order := GreedyPrefix(in)
	prefixProfit := prefix.Profit(in)
	if firstOut >= len(order) {
		// Everything fit; the greedy prefix is the whole instance and
		// is trivially optimal.
		return newResult(in, prefix)
	}
	out := order[firstOut]
	outItem := in.Items[out]
	if outItem.Profit > prefixProfit && outItem.Weight <= in.Capacity {
		return newResult(in, NewSolution(out))
	}
	return newResult(in, prefix)
}

// ProfitDensityBound returns the fractional upper bound on the optimum
// of the sub-instance consisting of items order[from:] with the given
// remaining capacity. order must be sorted by non-increasing
// efficiency. It is the bounding function of the branch-and-bound
// solver, exposed for testing.
func ProfitDensityBound(in *Instance, order []int, from int, remaining float64) float64 {
	bound := 0.0
	for _, i := range order[from:] {
		it := in.Items[i]
		if it.Weight <= remaining {
			bound += it.Profit
			remaining -= it.Weight
			continue
		}
		if remaining > 0 && it.Weight > 0 {
			bound += float64(it.Profit * (remaining / it.Weight))
		}
		break
	}
	if math.IsNaN(bound) {
		return math.Inf(1)
	}
	return bound
}
