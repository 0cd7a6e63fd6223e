package knapsack

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzGreedyFeasible drives the greedy solver family with arbitrary
// instances and asserts the structural invariants every solver must
// hold unconditionally: no solution ever exceeds the capacity, the
// prefix greedy stops exactly at the first non-fitting item, and Half
// returns a feasible solution whose profit is at least the plain
// prefix's. These are the feasibility halves of Lemma 4.7 — the part
// of the guarantee that must survive any input, not just w.h.p.
func FuzzGreedyFeasible(f *testing.F) {
	f.Add(uint64(4), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(uint64(0), []byte{})
	f.Add(uint64(1000), []byte{255, 0, 255, 0, 1, 1})
	f.Fuzz(func(t *testing.T, capBits uint64, data []byte) {
		in := fuzzInstance(capBits, data)
		if in == nil {
			t.Skip()
		}

		for name, res := range map[string]Result{
			"Greedy": Greedy(in),
			"Half":   Half(in),
		} {
			if !res.Solution.Feasible(in) {
				t.Fatalf("%s returned an infeasible solution: weight %v > capacity %v",
					name, res.Solution.Weight(in), in.Capacity)
			}
		}

		prefix, firstOut, order := GreedyPrefix(in)
		if !prefix.Feasible(in) {
			t.Fatalf("GreedyPrefix infeasible: weight %v > capacity %v", prefix.Weight(in), in.Capacity)
		}
		if firstOut < len(order) {
			cut := in.Items[order[firstOut]]
			if prefix.Weight(in)+cut.Weight <= in.Capacity {
				t.Fatalf("GreedyPrefix stopped early: item %d (w=%v) still fits after weight %v of %v",
					order[firstOut], cut.Weight, prefix.Weight(in), in.Capacity)
			}
		}
		if got, plain := Half(in).Solution.Profit(in), prefix.Profit(in); got < plain {
			t.Fatalf("Half profit %v < greedy prefix profit %v", got, plain)
		}
	})
}

// fuzzInstance decodes a fuzz payload into a valid instance: each 6
// bytes become one item with bounded non-negative finite profit and
// weight, honoring the documented input domain (Item.valid).
func fuzzInstance(capBits uint64, data []byte) *Instance {
	capacity := math.Float64frombits(capBits)
	if math.IsNaN(capacity) || math.IsInf(capacity, 0) || capacity < 0 || capacity > 1e12 {
		capacity = float64(capBits % 1000)
	}
	var items []Item
	for i := 0; i+6 <= len(data) && len(items) < 64; i += 6 {
		p := binary.LittleEndian.Uint32(data[i : i+4])
		w := binary.LittleEndian.Uint16(data[i+4 : i+6])
		items = append(items, Item{
			Profit: float64(p) / profitScale,
			Weight: float64(w) / 8.0,
		})
	}
	if len(items) == 0 {
		return nil
	}
	in, err := NewInstance(items, capacity)
	if err != nil {
		return nil
	}
	return in
}

// profitScale maps fuzzed integer profits into a small positive range.
const profitScale = 1 << 20
