// Package oracle implements the input-access models of the paper.
//
// An LCA never reads its (huge) input wholesale; it interacts with the
// instance through oracles. The paper uses two access types:
//
//   - point queries ("what are the profit and weight of item i?"),
//     the only access available in the impossibility results
//     (Theorems 3.2–3.4); and
//   - weighted sampling ("draw a random item with probability
//     proportional to its profit"), the additional power that enables
//     the positive result (Theorem 4.1), following Ito–Kiyoshima–
//     Yoshida.
//
// The package provides a slice-backed implementation whose weighted
// sampler is Walker's alias method, with O(1) draws. The alias table is
// IKY12's per-instance preprocessing, so there is one table per live
// instance: every oracle NewSliceOracle returns over one instance
// draws from that instance's one table, which lives as long as some
// oracle holds it. A column is 8 bytes, the top 32 bits of its keep
// probability and its alias, plus 12 B on a side list for each large
// column Vose drains: ~11 B per item on a zipf catalog. The one draw
// in 2³² whose coin ties a column's 32 bits recomputes the column's
// exact probability from the instance's profits, so every draw is the
// float64 test's, bit for bit.
// That makes the read-only contract of knapsack.Instance load-bearing:
// an instance written after its first oracle would misdraw for every
// later oracle over it too.
//
// Every access takes a context.Context so deployments can cancel or
// deadline-bound a query mid-flight; in-memory implementations never
// block and ignore the context, remote ones honor it. Cross-cutting
// instrumentation (counting and per-query metrics) lives in
// internal/engine as a composable middleware chain over Access.
package oracle

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"lcakp/internal/knapsack"
	"lcakp/internal/rng"
)

// Sentinel errors for oracle construction and use.
var (
	// ErrOutOfRange indicates an item index outside [0, N).
	ErrOutOfRange = errors.New("oracle: item index out of range")
	// ErrNoMass indicates a weighted sampler over an instance with no
	// positive profit mass.
	ErrNoMass = errors.New("oracle: no positive profit mass to sample")
)

// Oracle provides point query access to a Knapsack instance. This is
// the access model of Definition 2.2.
type Oracle interface {
	// QueryItem returns the profit and weight of item i. ctx bounds
	// the query; implementations that can block must return a wrapped
	// ctx.Err() when it fires.
	QueryItem(ctx context.Context, i int) (knapsack.Item, error)
	// N returns the number of items in the instance.
	N() int
	// Capacity returns the instance's weight limit.
	Capacity() float64
}

// Sampler provides weighted sampling access: each draw is an item —
// index plus its profit and weight — drawn with probability
// proportional to its profit (exactly equal to its profit when the
// instance is normalized). This is the extra access of Section 4; as
// in IKY12, a sample reveals the drawn item itself, so one draw costs
// one access (no follow-up point query is needed).
//
// SampleFrame is the one sampling implementation: callers that know
// how many draws they need ask for them in frames, and every layer
// charges a frame once. Sample is one draw, and every implementation
// defines it with SampleOne, over a one-draw frame.
type Sampler interface {
	// SampleFrame fills dst with the draws len(dst) successive single
	// draws from src would return, in order, and leaves src where
	// those draws would. It returns how many draws it filled; a non-nil
	// error means the draw after them failed, as with io.ReadFull. ctx
	// bounds the frame as in Oracle.QueryItem.
	SampleFrame(ctx context.Context, src *rng.Source, dst []Draw) (int, error)
	// Sample draws one item using randomness from src.
	Sample(ctx context.Context, src *rng.Source) (int, knapsack.Item, error)
}

// SampleOne draws one item as a one-draw frame of s. It is the body
// of every Sample method, so no type keeps a second per-draw path.
// Called on a Sample method's own concrete receiver, it inlines, its
// frame call devirtualizes and the one-draw frame stays on the stack.
func SampleOne(ctx context.Context, s Sampler, src *rng.Source) (Draw, error) {
	var d [1]Draw
	_, err := s.SampleFrame(ctx, src, d[:])
	return d[0], err
}

// Access bundles the two access types the LCA needs.
type Access interface {
	Oracle
	Sampler
}

// Draw is one weighted sample: the drawn index and the item it
// revealed.
type Draw struct {
	Index int
	Item  knapsack.Item
}

// SliceOracle is an Oracle (and Access, when built with a sampler)
// backed by an in-memory instance.
type SliceOracle struct {
	inst    *knapsack.Instance
	sampler *AliasSampler
}

var _ Access = (*SliceOracle)(nil)

// NewSliceOracle wraps an instance with point-query and alias-method
// weighted-sampling access. It returns ErrNoMass if the instance has
// no positive profit. The alias table is the instance's one shared
// table: the first oracle over an instance builds it, and every oracle
// over that instance while one of them lives draws from it. The
// instance must be read-only from its first oracle on (see
// knapsack.Instance); an instance read by one derivation alone can
// take a private table through NewSliceOracleWithSampler. An instance
// outside the heap, such as a package-level variable's, is not
// shared: each of its oracles builds a private table.
func NewSliceOracle(inst *knapsack.Instance) (*SliceOracle, error) {
	sampler, err := sharedSampler(inst)
	if err != nil {
		return nil, err
	}
	return &SliceOracle{inst: inst, sampler: sampler}, nil
}

// NewSliceOracleWithSampler wraps an instance with a prebuilt alias
// sampler over it. With a nil sampler the oracle serves point queries
// only, and skips the table's O(n) build.
func NewSliceOracleWithSampler(inst *knapsack.Instance, sampler *AliasSampler) *SliceOracle {
	return &SliceOracle{inst: inst, sampler: sampler}
}

// QueryItem returns the profit and weight of item i. In-memory access
// never blocks, so ctx is not consulted.
func (o *SliceOracle) QueryItem(_ context.Context, i int) (knapsack.Item, error) {
	if i < 0 || i >= len(o.inst.Items) {
		return knapsack.Item{}, fmt.Errorf("%w: %d (n=%d)", ErrOutOfRange, i, len(o.inst.Items))
	}
	return o.inst.Items[i], nil
}

// N returns the number of items.
func (o *SliceOracle) N() int { return len(o.inst.Items) }

// Capacity returns the weight limit.
func (o *SliceOracle) Capacity() float64 { return o.inst.Capacity }

// Sample draws an item with probability proportional to profit.
func (o *SliceOracle) Sample(ctx context.Context, src *rng.Source) (int, knapsack.Item, error) {
	d, err := SampleOne(ctx, o, src)
	return d.Index, d.Item, err
}

// SampleFrame fills dst with profit-weighted draws (see
// Sampler.SampleFrame). A frame of several draws is drawn in passes
// (see AliasSampler.sampleFrame); a one-draw frame, which would pay
// for the passes' buffers alone, takes one SampleIndex draw.
func (o *SliceOracle) SampleFrame(ctx context.Context, src *rng.Source, dst []Draw) (int, error) {
	if len(dst) > 1 {
		o.sampler.sampleFrame(src, o.inst.Items, dst)
		return len(dst), nil
	}
	for k := range dst {
		idx, err := o.sampler.SampleIndex(ctx, src)
		if err != nil {
			return k, err
		}
		dst[k] = Draw{Index: idx, Item: o.inst.Items[idx]}
	}
	return len(dst), nil
}

// AliasSampler draws profit-weighted samples in O(1) per draw using
// Walker's alias method with Vose's O(n) construction. Each column is
// 8 bytes, thr<<32 | alias, where thr = ⌊prob·2³²⌋ holds the top of
// the column's exact keep probability prob. A draw with coin c (the
// 53 bits Float64 scales) keeps the column when c/2⁵³ < prob; c's top
// 32 bits decide that alone unless they equal thr, one draw in 2³²,
// and only such a tie reads prob itself (see prob).
type AliasSampler struct {
	table []uint64
	// items and total are the profits the table was built from and
	// their sum, from which a tie recomputes a column's scaled weight.
	items []knapsack.Item
	total float64
	// drained lists, ascending, the large columns Vose drained below 1,
	// and residual the probability each kept: the one kind of column
	// whose prob is not its scaled weight, 12 B per entry.
	drained  []uint32
	residual []float64
}

// column packs an alias table column.
func column(thr, alias uint32) uint64 { return uint64(thr)<<32 | uint64(alias) }

// fullColumn is the column of an index that always yields itself.
func fullColumn(i uint32) uint64 { return column(math.MaxUint32, i) }

// threshold is the thr of a column that keeps its index with
// probability p in [0, 1): p·2³² is exact, and the conversion floors it.
func threshold(p float64) uint32 { return uint32(p * (1 << 32)) }

// NewAliasSampler builds an alias table over the instance's profits,
// read in place. The sampler reads the profits again on a tie, so the
// instance must stay read-only (see knapsack.Instance).
func NewAliasSampler(inst *knapsack.Instance) (*AliasSampler, error) {
	total := 0.0
	for _, it := range inst.Items {
		if !validWeight(it.Profit) {
			return nil, invalidWeight(it.Profit)
		}
		total += it.Profit
	}
	return vose(inst.Items, total)
}

// validWeight reports whether w is a finite non-negative weight: NaN
// and ±Inf fail one of the two comparisons.
func validWeight(w float64) bool { return w >= 0 && w <= math.MaxFloat64 }

// invalidWeight is the error for a weight validWeight rejects.
func invalidWeight(w float64) error {
	return fmt.Errorf("oracle: invalid sampling weight %v", w)
}

// vose builds the alias table of items, whose profits sum to total, by
// Vose's construction. An open column's 8 bytes hold its scaled weight
// as float64 bits, and a column is packed only when Vose closes it, so
// the build writes one 8-byte table.
//
// Both of Vose's stacks live in one worklist of n indices: the small
// columns from the front, work[:small], and the large ones from the
// back, work[large:], each with its top at the boundary, so pushes and
// pops run in the order two separate stacks would. The scaling pass
// writes each index to both boundaries and advances one, so it takes
// no branch on the class. The pairing loop keeps the draining large
// column's weight in p until it falls below 1 or the small columns run
// out; p + prob[s] - 1 is evaluated in the same order either way, so
// every column's prob and alias are the two-stack loop's bit for bit.
// Large columns drain from the highest index down, so reversing the
// drained list once sorts it.
func vose(items []knapsack.Item, total float64) (*AliasSampler, error) {
	n := len(items)
	if n == 0 || total <= 0 {
		return nil, ErrNoMass
	}
	if uint64(n) > math.MaxUint32 {
		return nil, fmt.Errorf("oracle: %d weights exceed the alias worklist's u32 indices", n)
	}
	table := make([]uint64, n)
	work := make([]uint32, n)
	small, large := 0, n
	for i := range table {
		p := items[i].Profit * float64(n) / total
		table[i] = math.Float64bits(p)
		work[small] = uint32(i)
		work[large-1] = uint32(i)
		s := b2i(p < 1)
		small += s
		large -= 1 - s
	}
	drained := make([]uint32, 0, n-large)
	residual := make([]float64, 0, n-large)
	for small > 0 && large < n {
		l := work[large]
		p := math.Float64frombits(table[l])
		for small > 0 {
			small--
			s := work[small]
			ps := math.Float64frombits(table[s])
			table[s] = column(threshold(ps), l)
			p = p + ps - 1
			if p < 1 {
				break
			}
		}
		table[l] = math.Float64bits(p)
		if p < 1 {
			large++
			work[small] = l
			small++
			drained = append(drained, l)
			residual = append(residual, p)
		}
	}
	// Numerical residue: remaining columns are full.
	for _, i := range work[large:] {
		table[i] = fullColumn(i)
	}
	for _, i := range work[:small] {
		table[i] = fullColumn(i)
	}
	slices.Reverse(drained)
	slices.Reverse(residual)
	return &AliasSampler{table: table, items: items, total: total, drained: drained, residual: residual}, nil
}

// b2i is 1 for true and 0 for false, without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// prob returns column i's exact keep probability: 1 for a full column,
// whose alias is itself; a drained large column's residual, found by
// binary search; and otherwise its scaled weight, recomputed with the
// build's own expression.
func (a *AliasSampler) prob(i int) float64 {
	if uint32(a.table[i]) == uint32(i) {
		return 1
	}
	lo, hi := 0, len(a.drained)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a.drained[mid] < uint32(i) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(a.drained) && a.drained[lo] == uint32(i) {
		return a.residual[lo]
	}
	return a.items[i].Profit * float64(len(a.table)) / a.total
}

// resolve returns the index a draw of column i with coin yields: the
// alias when coin's top 32 bits exceed the column's thr, the column
// when they fall below it, and on a tie the alias exactly when
// float64(coin)/2⁵³ >= prob. Clients choose the sampling seed and can
// force ties, so a tie costs a search of the drained list, never a
// rebuild. Off a tie the choice is a conditional move, not a branch on
// the coin, so a frame's table loads do not wait on one another's
// comparisons (see sampleFrame).
func (a *AliasSampler) resolve(i int, coin uint64) int {
	col := a.table[i]
	thr, c := uint32(col>>32), uint32(coin>>21)
	if c == thr {
		if float64(coin)/(1<<53) >= a.prob(i) {
			return int(uint32(col))
		}
		return i
	}
	r := i
	if c > thr {
		r = int(uint32(col))
	}
	return r
}

// SampleIndex draws one index in O(1).
func (a *AliasSampler) SampleIndex(_ context.Context, src *rng.Source) (int, error) {
	i := src.Intn(len(a.table))
	return a.resolve(i, src.Uint64()>>11), nil
}

// frameChunk is how many draws sampleFrame keeps in flight between its
// passes: enough independent table and item loads to fill the memory
// pipeline, few enough that the pass buffers live on the stack.
const frameChunk = 256

// sampleFrame fills dst with the draws len(dst) successive SampleIndex
// calls would return, each with its item from items. It runs in three
// passes per chunk: the first draws every (column, coin) pair from src
// in SampleIndex's order, in one rng.Source.IntnCoins call that keeps
// the generator in registers; the second resolves each column with
// resolve; the third gathers the items. Each pass's iterations are
// independent, so the chunk's cache misses on the table overlap, and
// then its misses on the items.
func (a *AliasSampler) sampleFrame(src *rng.Source, items []knapsack.Item, dst []Draw) {
	var cols [frameChunk]int
	var coins [frameChunk]uint64
	n := len(a.table)
	for len(dst) > 0 {
		k := min(len(dst), frameChunk)
		src.IntnCoins(n, cols[:k], coins[:k])
		for j := range k {
			cols[j] = a.resolve(cols[j], coins[j])
		}
		for j, i := range cols[:k] {
			dst[j] = Draw{Index: i, Item: items[i]}
		}
		dst = dst[k:]
	}
}
