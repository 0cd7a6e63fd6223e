// Package epoch implements the epoch-versioned instance model that
// lets a served catalog mutate without losing the paper's consistency
// guarantee. The paper fixes the instance I and derives every answer
// from the pure function C(I, r) (Definition 2.2, Theorem 4.1);
// production catalogs never hold still. The resolution is to version
// I: mutations (add / remove / reprice) accumulate into a MutationLog,
// and sealing the log produces epoch e+1 with instance I_{e+1} whose
// rule re-derives through the exact materialization path of DESIGN.md
// §12 — so within an epoch every guarantee of the fixed-instance model
// holds verbatim, and (TenantID, EpochID) replaces TenantID as the
// unit of bit-exact consistency.
package epoch

import (
	"fmt"
	"math"
	"slices"

	"lcakp/internal/knapsack"
)

// Op is a mutation kind.
type Op uint8

const (
	// OpAdd appends a new item at the end of the index space.
	OpAdd Op = 1
	// OpRemove retires the item at Index. The index space never
	// shrinks — the slot is replaced by a garbage-class item (profit 0)
	// that Classify sends to G(I) and no rule ever selects — so item
	// indices stay stable across epochs and answer bitsets stay
	// positionally comparable.
	OpRemove Op = 2
	// OpReprice replaces the profit and weight of the item at Index.
	OpReprice Op = 3
)

// String names the op for logs and error text.
func (op Op) String() string {
	switch op {
	case OpAdd:
		return "add"
	case OpRemove:
		return "remove"
	case OpReprice:
		return "reprice"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// garbageItem is the tombstone installed by OpRemove: zero profit,
// positive weight puts it in G(I) for every eps, so it is never
// selected and contributes nothing to any mass estimate.
var garbageItem = knapsack.Item{Profit: 0, Weight: 1}

// Mutation is one catalog edit. Adds carry the index they will land
// at (the instance length at application time) so a log is
// self-checking: replaying it against the wrong base instance fails
// loudly instead of silently building a different I_{e+1}.
type Mutation struct {
	// Op selects the edit kind.
	Op Op
	// Index is the item slot the edit targets (for OpAdd, the slot the
	// item appends into).
	Index uint32
	// Profit and Weight are the new item fields for OpAdd/OpReprice;
	// both must be zero for OpRemove (the tombstone is canonical).
	Profit float64
	Weight float64
}

// validate checks one mutation against nextLen, the instance length at
// the point this mutation applies.
func (m Mutation) validate(nextLen int) error {
	switch m.Op {
	case OpAdd:
		if int(m.Index) != nextLen {
			return fmt.Errorf("epoch: add at index %d, want %d (log replayed against wrong base?)", m.Index, nextLen)
		}
		if !validFields(m.Profit, m.Weight) {
			return fmt.Errorf("epoch: add: invalid item fields p=%v w=%v", m.Profit, m.Weight)
		}
	case OpRemove:
		if int(m.Index) >= nextLen {
			return fmt.Errorf("epoch: remove index %d out of range [0,%d)", m.Index, nextLen)
		}
		if m.Profit != 0 || m.Weight != 0 {
			return fmt.Errorf("epoch: remove carries item fields p=%v w=%v (must be zero)", m.Profit, m.Weight)
		}
	case OpReprice:
		if int(m.Index) >= nextLen {
			return fmt.Errorf("epoch: reprice index %d out of range [0,%d)", m.Index, nextLen)
		}
		if !validFields(m.Profit, m.Weight) {
			return fmt.Errorf("epoch: reprice: invalid item fields p=%v w=%v", m.Profit, m.Weight)
		}
	default:
		return fmt.Errorf("epoch: unknown op %d", uint8(m.Op))
	}
	return nil
}

// validFields mirrors knapsack.Item validity: finite, non-negative.
func validFields(p, w float64) bool {
	return p >= 0 && p <= math.MaxFloat64 && w >= 0 && w <= math.MaxFloat64
}

// Apply replays a log against base and returns I_{e+1}. The base is
// not modified; the log is validated mutation by mutation at the
// length it applies to (see Mutation.validate), and the result is
// built by knapsack.Revise: a valid base with valid items written
// into it needs no second check of all n items. slices.Clone copies
// the base without zeroing the new slice first.
func Apply(base *knapsack.Instance, log []Mutation) (*knapsack.Instance, error) {
	items := slices.Clone(base.Items)
	for k, m := range log {
		if err := m.validate(len(items)); err != nil {
			return nil, fmt.Errorf("epoch: apply mutation %d: %w", k, err)
		}
		switch m.Op {
		case OpAdd:
			items = append(items, knapsack.Item{Profit: m.Profit, Weight: m.Weight})
		case OpRemove:
			items[m.Index] = garbageItem
		case OpReprice:
			items[m.Index] = knapsack.Item{Profit: m.Profit, Weight: m.Weight}
		}
	}
	return knapsack.Revise(base, items)
}
