package oracle

import (
	"context"
	"fmt"

	"lcakp/internal/knapsack"
	"lcakp/internal/rng"
)

// Sharded combines several Access backends holding contiguous index
// ranges of one logical instance — the "input too large for one
// machine" deployment. Point queries route to the owning shard by
// index arithmetic; weighted sampling is two-level: first a shard is
// drawn proportionally to its profit mass, then the shard draws an
// item, which preserves the global profit-proportional distribution
// exactly (P[item] = P[shard]·P[item|shard] = mass_s · p_i/mass_s =
// p_i).
//
// All shards must agree on the capacity (they hold pieces of one
// instance). Shard masses are provided by the caller at construction:
// they are global knowledge of the same kind as n and K in the LCA
// model (one number per shard, not per item).
type Sharded struct {
	shards  []Access
	offsets []int // offsets[s] = first global index of shard s
	total   int
	masses  *AliasSampler
	cap     float64
}

var _ Access = (*Sharded)(nil)

// NewSharded builds a sharded access over the given backends. masses
// must hold each shard's total profit (in the same normalized units);
// they need not sum exactly to 1.
func NewSharded(shards []Access, masses []float64) (*Sharded, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("%w: no shards", ErrNoMass)
	}
	if len(masses) != len(shards) {
		return nil, fmt.Errorf("oracle: %d masses for %d shards", len(masses), len(shards))
	}
	sampler, err := NewAliasSamplerWeights(masses)
	if err != nil {
		return nil, fmt.Errorf("oracle: shard masses: %w", err)
	}
	s := &Sharded{
		shards:  shards,
		offsets: make([]int, len(shards)),
		masses:  sampler,
		cap:     shards[0].Capacity(),
	}
	for i, shard := range shards {
		s.offsets[i] = s.total
		s.total += shard.N()
		if shard.Capacity() != s.cap {
			return nil, fmt.Errorf("oracle: shard %d capacity %v != %v", i, shard.Capacity(), s.cap)
		}
	}
	return s, nil
}

// N returns the combined item count.
func (s *Sharded) N() int { return s.total }

// Capacity returns the (shared) weight limit.
func (s *Sharded) Capacity() float64 { return s.cap }

// shardOf locates the shard owning global index i.
func (s *Sharded) shardOf(i int) (int, int, error) {
	if i < 0 || i >= s.total {
		return 0, 0, fmt.Errorf("%w: %d (n=%d)", ErrOutOfRange, i, s.total)
	}
	// Linear scan: shard counts are tiny (machines, not items).
	for sh := len(s.offsets) - 1; sh >= 0; sh-- {
		if i >= s.offsets[sh] {
			return sh, i - s.offsets[sh], nil
		}
	}
	return 0, 0, fmt.Errorf("%w: %d", ErrOutOfRange, i)
}

// QueryItem routes the point query to the owning shard.
func (s *Sharded) QueryItem(ctx context.Context, i int) (knapsack.Item, error) {
	sh, local, err := s.shardOf(i)
	if err != nil {
		return knapsack.Item{}, err
	}
	return s.shards[sh].QueryItem(ctx, local)
}

// Sample draws one item (see SampleFrame).
func (s *Sharded) Sample(ctx context.Context, src *rng.Source) (int, knapsack.Item, error) {
	d, err := SampleOne(ctx, s, src)
	return d.Index, d.Item, err
}

// SampleFrame fills dst one draw at a time, each a shard drawn
// proportionally to its mass and then an item within it, with its
// global index, so src is consumed in the order single draws consume
// it.
func (s *Sharded) SampleFrame(ctx context.Context, src *rng.Source, dst []Draw) (int, error) {
	for k := range dst {
		sh, err := s.masses.SampleIndex(ctx, src)
		if err != nil {
			return k, err
		}
		if _, err := s.shards[sh].SampleFrame(ctx, src, dst[k:k+1]); err != nil {
			return k, fmt.Errorf("oracle: shard %d: %w", sh, err)
		}
		dst[k].Index += s.offsets[sh]
	}
	return len(dst), nil
}

// SplitInstance cuts a normalized instance into k contiguous shards
// with their profit masses — the test/demo constructor for Sharded.
func SplitInstance(in *knapsack.Instance, k int) ([]Access, []float64, error) {
	if k < 1 || k > in.N() {
		return nil, nil, fmt.Errorf("oracle: cannot split %d items into %d shards", in.N(), k)
	}
	shards := make([]Access, 0, k)
	masses := make([]float64, 0, k)
	per := (in.N() + k - 1) / k
	for start := 0; start < in.N(); start += per {
		end := start + per
		if end > in.N() {
			end = in.N()
		}
		piece := &knapsack.Instance{
			Items:    in.Items[start:end],
			Capacity: in.Capacity,
		}
		acc, err := NewSliceOracle(piece)
		if err != nil {
			return nil, nil, fmt.Errorf("oracle: shard at %d: %w", start, err)
		}
		shards = append(shards, acc)
		masses = append(masses, piece.TotalProfit())
	}
	return shards, masses, nil
}
