package knapsack

import (
	"fmt"
	"math"
)

// IntItem is a Knapsack item with integer profit and weight, the
// representation on which exact dynamic programming is defined.
type IntItem struct {
	Profit int64
	Weight int64
}

// IntInstance is an integer Knapsack instance.
type IntInstance struct {
	Items    []IntItem
	Capacity int64
}

// Validate checks structural invariants: at least one item,
// non-negative capacity, and non-negative item fields.
func (in *IntInstance) Validate() error {
	if len(in.Items) == 0 {
		return ErrEmptyInstance
	}
	if in.Capacity < 0 {
		return fmt.Errorf("%w: %d", ErrNegativeCapacity, in.Capacity)
	}
	for i, it := range in.Items {
		if it.Profit < 0 || it.Weight < 0 {
			return fmt.Errorf("%w: item %d = %+v", ErrInvalidItem, i, it)
		}
	}
	return nil
}

// N returns the number of items.
func (in *IntInstance) N() int { return len(in.Items) }

// TotalProfit returns the sum of all item profits.
func (in *IntInstance) TotalProfit() int64 {
	var total int64
	for _, it := range in.Items {
		total += it.Profit
	}
	return total
}

// Normalized converts to a float64 Instance with total profit and
// total weight both scaled to 1 (the paper's Section 4 convention),
// the form the LCA consumes. The original integer profits remain
// available for exact solving; the profit scale factor is returned so
// callers can convert objective values between the two
// representations (normalized profit = integer profit * scale).
func (in *IntInstance) Normalized() (*Instance, float64, error) {
	total := in.TotalProfit()
	if total <= 0 {
		return nil, 0, fmt.Errorf("%w: total profit %d", ErrInvalidItem, total)
	}
	var totalW int64
	for _, it := range in.Items {
		totalW += it.Weight
	}
	if totalW <= 0 {
		return nil, 0, fmt.Errorf("%w: total weight %d", ErrInvalidItem, totalW)
	}
	scale := 1 / float64(total)
	wScale := 1 / float64(totalW)
	items := make([]Item, len(in.Items))
	for i, it := range in.Items {
		items[i] = Item{
			Profit: float64(it.Profit) * scale,
			Weight: float64(it.Weight) * wScale,
		}
	}
	return &Instance{Items: items, Capacity: float64(in.Capacity) * wScale}, scale, nil
}

// DPByWeight solves the integer instance exactly with the classic
// O(n·Capacity) dynamic program over weights and reconstructs an
// optimal solution. It returns ErrTooLarge when n·Capacity exceeds
// maxDPCells, to protect callers from accidental multi-gigabyte tables.
func DPByWeight(in *IntInstance) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	const maxDPCells = 1 << 28
	n := int64(len(in.Items))
	cap64 := in.Capacity
	if n*(cap64+1) > maxDPCells {
		return Result{}, fmt.Errorf("%w: %d items x capacity %d", ErrTooLarge, n, cap64)
	}

	// table[i][w] = best profit using items[0:i] within weight w.
	// Row-compressed: keep all rows for reconstruction — the cell cap
	// above keeps this bounded.
	width := int(cap64 + 1)
	rows := make([][]int64, len(in.Items)+1)
	rows[0] = make([]int64, width)
	for i, it := range in.Items {
		prev := rows[i]
		cur := make([]int64, width)
		for w := 0; w < width; w++ {
			best := prev[w]
			if it.Weight <= int64(w) {
				if cand := prev[int64(w)-it.Weight] + it.Profit; cand > best {
					best = cand
				}
			}
			cur[w] = best
		}
		rows[i+1] = cur
	}

	// Reconstruct.
	var chosen []int
	w := int64(width - 1)
	for i := len(in.Items); i > 0; i-- {
		if rows[i][w] != rows[i-1][w] {
			chosen = append(chosen, i-1)
			w -= in.Items[i-1].Weight
		}
	}
	sol := NewSolution(chosen...)
	res := intResult(in, sol)
	return res, nil
}

// DPByProfit solves the integer instance exactly with the dual dynamic
// program over profits: minWeight[p] = minimum weight achieving profit
// exactly p. It is preferable when total profit is much smaller than
// capacity, and is the core of the FPTAS. It returns ErrTooLarge when
// n·TotalProfit exceeds maxDPCells.
func DPByProfit(in *IntInstance) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	const maxDPCells = 1 << 28
	total := in.TotalProfit()
	n := int64(len(in.Items))
	if n*(total+1) > maxDPCells {
		return Result{}, fmt.Errorf("%w: %d items x total profit %d", ErrTooLarge, n, total)
	}

	const inf = math.MaxInt64 / 4
	width := int(total + 1)
	rows := make([][]int64, len(in.Items)+1)
	rows[0] = make([]int64, width)
	for p := 1; p < width; p++ {
		rows[0][p] = inf
	}
	for i, it := range in.Items {
		prev := rows[i]
		cur := make([]int64, width)
		for p := 0; p < width; p++ {
			best := prev[p]
			if it.Profit <= int64(p) {
				if cand := prev[int64(p)-it.Profit] + it.Weight; cand < best {
					best = cand
				}
			}
			cur[p] = best
		}
		rows[i+1] = cur
	}

	// The optimum is the largest profit achievable within capacity.
	last := rows[len(in.Items)]
	bestP := 0
	for p := width - 1; p >= 0; p-- {
		if last[p] <= in.Capacity {
			bestP = p
			break
		}
	}

	// Reconstruct.
	var chosen []int
	p := int64(bestP)
	for i := len(in.Items); i > 0; i-- {
		if rows[i][p] != rows[i-1][p] {
			chosen = append(chosen, i-1)
			p -= in.Items[i-1].Profit
		}
	}
	return intResult(in, NewSolution(chosen...)), nil
}

// intResult evaluates sol against the integer instance.
func intResult(in *IntInstance, sol *Solution) Result {
	var profit, weight int64
	for _, i := range sol.Indices() {
		profit += in.Items[i].Profit
		weight += in.Items[i].Weight
	}
	return Result{Solution: sol, Profit: float64(profit), Weight: float64(weight)}
}
