// Package knapsack implements the Knapsack problem domain used
// throughout the LCA reproduction: instance and solution types, the
// large/small/garbage partition of Canonne–Li–Umboh (Section 4), and a
// family of solvers (greedy, fractional greedy, the classic
// 1/2-approximation, exact dynamic programming, branch-and-bound,
// exhaustive search, and an FPTAS) that serve as ground truth and
// baselines for the LCA experiments.
//
// Two instance representations are provided. Instance carries float64
// profits and weights and is the form consumed by the LCA (the paper
// normalizes total profit to 1). IntInstance carries integer profits
// and weights, the form in which exact dynamic programming is
// well-defined; workload generators produce an IntInstance and its
// normalized Instance together so experiments always have an exact
// optimum available.
package knapsack

import (
	"errors"
	"fmt"
	"math"
)

// Sentinel errors returned by instance validation and solvers.
var (
	// ErrEmptyInstance indicates an instance with no items.
	ErrEmptyInstance = errors.New("knapsack: empty instance")
	// ErrNegativeCapacity indicates a negative weight limit.
	ErrNegativeCapacity = errors.New("knapsack: negative capacity")
	// ErrInvalidItem indicates an item with a negative or non-finite
	// profit or weight.
	ErrInvalidItem = errors.New("knapsack: invalid item")
	// ErrTooLarge indicates an instance too big for the chosen solver
	// (e.g. exhaustive search beyond its item limit).
	ErrTooLarge = errors.New("knapsack: instance too large for solver")
	// ErrNotNormalized indicates an operation that requires total
	// profit normalized to 1 was invoked on a non-normalized instance.
	ErrNotNormalized = errors.New("knapsack: instance not profit-normalized")
)

// Item is a single Knapsack item with a profit and a weight.
type Item struct {
	Profit float64
	Weight float64
}

// Efficiency returns the profit-to-weight ratio p/w used by the greedy
// algorithms and by the paper's small/garbage classification.
// Degenerate cases follow the conventions the LCA relies on:
// an item with zero weight and positive profit is infinitely efficient
// (it is always worth taking), and an item with zero profit has
// efficiency zero regardless of weight (it is never worth taking).
func (it Item) Efficiency() float64 {
	if it.Profit <= 0 {
		return 0
	}
	if it.Weight <= 0 {
		return math.Inf(1)
	}
	return it.Profit / it.Weight
}

// valid reports whether the item has finite, non-negative fields: two
// range comparisons per field, which NaN and ±Inf fail.
func (it Item) valid() bool {
	return it.Profit >= 0 && it.Profit <= math.MaxFloat64 &&
		it.Weight >= 0 && it.Weight <= math.MaxFloat64
}

// Instance is a Knapsack instance: a set of items and a capacity
// (weight limit). The zero value is an empty, invalid instance; build
// instances with NewInstance or a composite literal followed by
// Validate. An instance is read-only once built: oracles, epoch
// managers and their snapshots share its items without copying them,
// so a changed catalog is a new instance (see epoch.Apply). Oracles
// over one instance also share one alias table, built from its
// profits by the first of them (oracle.NewSliceOracle), so writing an
// item after an oracle exists misleads every later oracle over that
// instance too, not only the live ones.
type Instance struct {
	Items    []Item
	Capacity float64
}

// NewInstance constructs an instance and validates it.
func NewInstance(items []Item, capacity float64) (*Instance, error) {
	inst := &Instance{Items: items, Capacity: capacity}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	return inst, nil
}

// Validate checks structural invariants: at least one item,
// non-negative capacity, and finite non-negative item fields.
func (in *Instance) Validate() error {
	if len(in.Items) == 0 {
		return ErrEmptyInstance
	}
	if in.Capacity < 0 || math.IsNaN(in.Capacity) {
		return fmt.Errorf("%w: %v", ErrNegativeCapacity, in.Capacity)
	}
	for i, it := range in.Items {
		if !it.valid() {
			return fmt.Errorf("%w: item %d = %+v", ErrInvalidItem, i, it)
		}
	}
	return nil
}

// N returns the number of items.
func (in *Instance) N() int { return len(in.Items) }

// TotalProfit returns the sum of all item profits.
func (in *Instance) TotalProfit() float64 {
	total := 0.0
	for _, it := range in.Items {
		total += it.Profit
	}
	return total
}

// TotalWeight returns the sum of all item weights.
func (in *Instance) TotalWeight() float64 {
	total := 0.0
	for _, it := range in.Items {
		total += it.Weight
	}
	return total
}

// normalizationTolerance bounds the acceptable deviation of total
// profit from 1 for IsNormalized. It is loose enough to absorb the
// floating-point error of summing millions of profits.
const normalizationTolerance = 1e-6

// IsNormalized reports whether total profit is 1 up to floating-point
// tolerance, the precondition of the paper's weighted-sampling model.
func (in *Instance) IsNormalized() bool {
	return math.Abs(in.TotalProfit()-1) <= normalizationTolerance
}

// Normalized returns a copy of the instance with profits scaled so the
// total profit is exactly 1 and weights (and the capacity) scaled so
// the total weight is exactly 1 — the paper's Section 4 convention
// ("the total profit and weight are both normalized to 1"), under
// which the ε²-efficiency classification of items is meaningful. It
// returns an error if the total profit or total weight is not
// positive.
func (in *Instance) Normalized() (*Instance, error) {
	totalP := in.TotalProfit()
	if totalP <= 0 {
		return nil, fmt.Errorf("%w: total profit %v", ErrInvalidItem, totalP)
	}
	totalW := in.TotalWeight()
	if totalW <= 0 {
		return nil, fmt.Errorf("%w: total weight %v", ErrInvalidItem, totalW)
	}
	items := make([]Item, len(in.Items))
	for i, it := range in.Items {
		items[i] = Item{Profit: it.Profit / totalP, Weight: it.Weight / totalW}
	}
	return &Instance{Items: items, Capacity: in.Capacity / totalW}, nil
}

// Class is the paper's three-way item classification (Section 4).
type Class uint8

// Item classes. Large items have profit above eps^2; small items have
// low profit but efficiency at least eps^2; garbage items have both low
// profit and low efficiency and never enter the LCA's solution.
const (
	ClassLarge Class = iota + 1
	ClassSmall
	ClassGarbage
)

// Classify returns the class of item it under threshold parameter eps,
// following the paper's definition:
//
//	L(I) = { p >  eps^2 }
//	S(I) = { p <= eps^2 and p/w >= eps^2 }
//	G(I) = { p <= eps^2 and p/w <  eps^2 }
func Classify(it Item, eps float64) Class {
	eps2 := eps * eps
	if it.Profit > eps2 {
		return ClassLarge
	}
	if it.Efficiency() >= eps2 {
		return ClassSmall
	}
	return ClassGarbage
}

// Partition returns the index sets of large, small and garbage items of
// the instance under threshold parameter eps.
func Partition(in *Instance, eps float64) (large, small, garbage []int) {
	for i, it := range in.Items {
		switch Classify(it, eps) {
		case ClassLarge:
			large = append(large, i)
		case ClassSmall:
			small = append(small, i)
		default:
			garbage = append(garbage, i)
		}
	}
	return large, small, garbage
}

// ProfitOf sums the profits of the items at the given indices.
func (in *Instance) ProfitOf(indices []int) float64 {
	total := 0.0
	for _, i := range indices {
		total += in.Items[i].Profit
	}
	return total
}

// WeightOf sums the weights of the items at the given indices.
func (in *Instance) WeightOf(indices []int) float64 {
	total := 0.0
	for _, i := range indices {
		total += in.Items[i].Weight
	}
	return total
}
