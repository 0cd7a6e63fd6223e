package knapsack

import "sort"

// Solution is a subset of item indices of some instance. Solutions are
// kept sorted by index with no duplicates; use NewSolution to build one
// from arbitrary input.
type Solution struct {
	indices []int
}

// NewSolution builds a solution from the given item indices,
// de-duplicating and sorting them.
func NewSolution(indices ...int) *Solution {
	sorted := make([]int, len(indices))
	copy(sorted, indices)
	sort.Ints(sorted)
	dedup := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			dedup = append(dedup, v)
		}
	}
	return &Solution{indices: dedup}
}

// Indices returns the solution's item indices in increasing order.
// The returned slice is a copy and may be modified by the caller.
func (s *Solution) Indices() []int {
	out := make([]int, len(s.indices))
	copy(out, s.indices)
	return out
}

// Len returns the number of items in the solution.
func (s *Solution) Len() int { return len(s.indices) }

// Contains reports whether item i is in the solution.
func (s *Solution) Contains(i int) bool {
	k := sort.SearchInts(s.indices, i)
	return k < len(s.indices) && s.indices[k] == i
}

// Profit returns the total profit of the solution under instance in.
func (s *Solution) Profit(in *Instance) float64 {
	return in.ProfitOf(s.indices)
}

// Weight returns the total weight of the solution under instance in.
func (s *Solution) Weight(in *Instance) float64 {
	return in.WeightOf(s.indices)
}

// Feasible reports whether the solution's total weight is within the
// instance capacity (with a tiny floating-point tolerance so that
// solutions constructed to be exactly tight do not flip infeasible from
// rounding error).
func (s *Solution) Feasible(in *Instance) bool {
	return s.Weight(in) <= float64(in.Capacity*(1+1e-12))+1e-12
}

// Result bundles a solution with its profit and weight under the
// instance it was computed for, as returned by the solvers.
type Result struct {
	Solution *Solution
	Profit   float64
	Weight   float64
}

// newResult evaluates sol against in and wraps it in a Result.
func newResult(in *Instance, sol *Solution) Result {
	return Result{
		Solution: sol,
		Profit:   sol.Profit(in),
		Weight:   sol.Weight(in),
	}
}
