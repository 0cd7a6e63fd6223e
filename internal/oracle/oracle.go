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
// The package provides slice-backed implementations and two weighted
// samplers (Walker's alias method with O(1) draws, and a prefix-sum
// binary-search sampler used as a baseline/ablation). Every access
// takes a context.Context so deployments can cancel or deadline-bound
// a query mid-flight; in-memory implementations never block and ignore
// the context, remote ones honor it. Cross-cutting instrumentation
// (counting, budgets, fault injection, per-query metrics) lives in
// internal/engine as a composable middleware chain over Access.
package oracle

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

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
	// ErrBudgetExhausted is returned by budget-limited access (the
	// engine's budget middleware) when the caller has spent its
	// allotted number of queries. It lives here, next to the access
	// interfaces, so every layer can test for it with errors.Is
	// without importing the middleware package.
	ErrBudgetExhausted = errors.New("oracle: query budget exhausted")
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

// IndexSampler draws bare indices from a fixed weight vector; it is
// the low-level primitive behind Sampler implementations and the unit
// under test for the alias/prefix ablation.
type IndexSampler interface {
	// SampleIndex draws one index using randomness from src.
	SampleIndex(ctx context.Context, src *rng.Source) (int, error)
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
	sampler IndexSampler
}

var _ Access = (*SliceOracle)(nil)

// NewSliceOracle wraps an instance with point-query and alias-method
// weighted-sampling access. It returns ErrNoMass if the instance has
// no positive profit.
func NewSliceOracle(inst *knapsack.Instance) (*SliceOracle, error) {
	sampler, err := NewAliasSampler(inst)
	if err != nil {
		return nil, err
	}
	return &SliceOracle{inst: inst, sampler: sampler}, nil
}

// NewSliceOracleWithSampler wraps an instance with an explicit index
// sampler implementation (used by the sampler ablation benchmarks).
func NewSliceOracleWithSampler(inst *knapsack.Instance, sampler IndexSampler) *SliceOracle {
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
// Sampler.SampleFrame). With the alias sampler a frame of several
// draws is drawn in two passes (see AliasSampler.sampleFrame); a
// one-draw frame, which would pay for the passes' buffers alone, and
// any other sampler draw one by one.
func (o *SliceOracle) SampleFrame(ctx context.Context, src *rng.Source, dst []Draw) (int, error) {
	if a, ok := o.sampler.(*AliasSampler); ok && len(dst) > 1 {
		a.sampleFrame(src, o.inst.Items, dst)
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
// Walker's alias method with Vose's O(n) construction. The table is
// one packed array of {prob, alias} columns, 16 B per item, so a draw
// touches one cache line of the table instead of two.
type AliasSampler struct {
	table []aliasColumn
}

// aliasColumn is one column of the alias table: the column keeps its
// own index with probability prob and yields alias otherwise.
type aliasColumn struct {
	prob  float64
	alias int
}

var _ IndexSampler = (*AliasSampler)(nil)

// NewAliasSampler builds an alias table over the instance's profits,
// read in place.
func NewAliasSampler(inst *knapsack.Instance) (*AliasSampler, error) {
	table := make([]aliasColumn, len(inst.Items))
	total := 0.0
	for i, it := range inst.Items {
		if !validWeight(it.Profit) {
			return nil, invalidWeight(it.Profit)
		}
		table[i].prob = it.Profit
		total += it.Profit
	}
	return vose(table, total)
}

// NewAliasSamplerWeights builds an alias table over arbitrary
// non-negative weights. It returns ErrNoMass if the weights sum to
// zero (or contain no positive entries).
func NewAliasSamplerWeights(weights []float64) (*AliasSampler, error) {
	table := make([]aliasColumn, len(weights))
	total := 0.0
	for i, w := range weights {
		if !validWeight(w) {
			return nil, invalidWeight(w)
		}
		table[i].prob = w
		total += w
	}
	return vose(table, total)
}

// validWeight reports whether w is a finite non-negative weight: NaN
// and ±Inf fail one of the two comparisons.
func validWeight(w float64) bool { return w >= 0 && w <= math.MaxFloat64 }

// invalidWeight is the error for a weight validWeight rejects.
func invalidWeight(w float64) error {
	return fmt.Errorf("oracle: invalid sampling weight %v", w)
}

// vose completes an alias table whose columns hold their raw weights,
// summing to total, by Vose's construction. A column's prob holds its
// scaled weight until the column is closed, and a closed column's
// scaled weight is exactly its final prob.
//
// Both of Vose's stacks live in one worklist of n indices: the small
// columns from the front, work[:small], and the large ones from the
// back, work[large:], each with its top at the boundary, so pushes and
// pops run in the order two separate stacks would. The scaling pass
// writes each index to both boundaries and advances one, so it takes
// no branch on the class. The pairing loop keeps the draining large
// column's weight in p until it falls below 1 or the small columns run
// out; p + prob[s] - 1 is evaluated in the same order either way, so
// the table is the two-stack loop's bit for bit.
func vose(table []aliasColumn, total float64) (*AliasSampler, error) {
	n := len(table)
	if n == 0 || total <= 0 {
		return nil, ErrNoMass
	}
	if uint64(n) > math.MaxUint32 {
		return nil, fmt.Errorf("oracle: %d weights exceed the alias worklist's u32 indices", n)
	}
	work := make([]uint32, n)
	small, large := 0, n
	for i := range table {
		p := table[i].prob * float64(n) / total
		table[i].prob = p
		work[small] = uint32(i)
		work[large-1] = uint32(i)
		s := b2i(p < 1)
		small += s
		large -= 1 - s
	}
	for small > 0 && large < n {
		l := work[large]
		p := table[l].prob
		for small > 0 {
			small--
			s := work[small]
			table[s].alias = int(l)
			p = p + table[s].prob - 1
			if p < 1 {
				break
			}
		}
		table[l].prob = p
		if p < 1 {
			large++
			work[small] = l
			small++
		}
	}
	// Numerical residue: remaining columns are full.
	for _, i := range work[large:] {
		table[i] = aliasColumn{prob: 1, alias: int(i)}
	}
	for _, i := range work[:small] {
		table[i] = aliasColumn{prob: 1, alias: int(i)}
	}
	return &AliasSampler{table: table}, nil
}

// b2i is 1 for true and 0 for false, without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// SampleIndex draws one index in O(1).
func (a *AliasSampler) SampleIndex(_ context.Context, src *rng.Source) (int, error) {
	i := src.Intn(len(a.table))
	if col := a.table[i]; src.Float64() >= col.prob {
		return col.alias, nil
	}
	return i, nil
}

// frameChunk is how many draws sampleFrame keeps in flight between its
// passes: enough independent table and item loads to fill the memory
// pipeline, few enough that the pass buffers live on the stack.
const frameChunk = 256

// sampleFrame fills dst with the draws len(dst) successive SampleIndex
// calls would return, each with its item from items. It runs in two
// passes per chunk: the first draws every (column, coin) pair from src
// in SampleIndex's order, in one rng.Source.IntnCoins call that keeps
// the generator in registers; the second resolves the columns and
// gathers the items. The second pass's iterations are independent, so
// their cache misses on the table and the items overlap, where a
// one-pass loop waits on each draw's coin branch before it issues the
// next draw's loads. A coin is the top 53 bits Float64 scales, so the
// test float64(coin)/2^53 >= prob is SampleIndex's.
func (a *AliasSampler) sampleFrame(src *rng.Source, items []knapsack.Item, dst []Draw) {
	var cols [frameChunk]int
	var coins [frameChunk]uint64
	n := len(a.table)
	for len(dst) > 0 {
		k := min(len(dst), frameChunk)
		src.IntnCoins(n, cols[:k], coins[:k])
		for j := range k {
			i := cols[j]
			if col := a.table[i]; float64(coins[j])/(1<<53) >= col.prob {
				i = col.alias
			}
			dst[j] = Draw{Index: i, Item: items[i]}
		}
		dst = dst[k:]
	}
}

// PrefixSampler draws profit-weighted samples in O(log n) per draw by
// binary search over the profit prefix sums. It exists as the simple
// baseline against which AliasSampler is benchmarked.
type PrefixSampler struct {
	cum []float64
}

var _ IndexSampler = (*PrefixSampler)(nil)

// NewPrefixSampler builds a prefix-sum sampler over the instance's
// profits. It returns ErrNoMass for zero total profit.
func NewPrefixSampler(inst *knapsack.Instance) (*PrefixSampler, error) {
	ws := profits(inst)
	cum := make([]float64, len(ws))
	total := 0.0
	for i, w := range ws {
		if !validWeight(w) {
			return nil, invalidWeight(w)
		}
		total += w
		cum[i] = total
	}
	if len(cum) == 0 || total <= 0 {
		return nil, ErrNoMass
	}
	for i := range cum {
		cum[i] /= total
	}
	return &PrefixSampler{cum: cum}, nil
}

// SampleIndex draws one index in O(log n).
func (p *PrefixSampler) SampleIndex(_ context.Context, src *rng.Source) (int, error) {
	u := src.Float64()
	i := sort.SearchFloat64s(p.cum, u)
	if i >= len(p.cum) {
		i = len(p.cum) - 1
	}
	// Skip zero-mass entries that binary search may land on when u
	// equals a plateau boundary exactly.
	for i < len(p.cum)-1 && (i == 0 && p.cum[0] == 0 || i > 0 && p.cum[i] == p.cum[i-1]) {
		i++
	}
	return i, nil
}

// profits extracts the profit vector of an instance.
func profits(inst *knapsack.Instance) []float64 {
	ws := make([]float64, len(inst.Items))
	for i, it := range inst.Items {
		ws[i] = it.Profit
	}
	return ws
}

// The counting and budgeted wrappers that used to live here are now
// middleware in internal/engine (engine.NewCounting, engine.NewBudgeted
// and the underlying engine.Middleware chain): the oracle package
// defines only the access model, and exactly one mechanism — the
// middleware chain — intercepts it.
