// Package avgcase explores the paper's closing open question
// (Section 5): whether the average-case local computation model of
// Biswas–Cao–Pyne–Rubinfeld [BCPR24] — where the input is promised to
// come from a known generative process — allows faster LCAs for
// Knapsack, or sidesteps the impossibility results without weighted
// sampling access.
//
// For product distributions the answer is affirmative and the
// construction is striking in its simplicity. When items are i.i.d.
// from a known distribution D, the fractional-Knapsack structure of
// the problem concentrates: the optimal solution is, up to lower-order
// terms, "every item with efficiency above a fixed threshold e*",
// where e* depends only on D and the capacity fraction — not on the
// realized instance. A threshold LCA therefore answers a membership
// query with exactly ONE point query (the queried item itself), no
// sampling, and perfect cross-run consistency, because the threshold
// is a deterministic function of the model.
//
// The price is the promise itself: on instances that do not come from
// the model, feasibility breaks (experiment E11 demonstrates both
// sides). This is exactly the trade the paper's Section 5 hypothesizes:
// average-case assumptions substitute for the weighted-sampling oracle.
package avgcase

import (
	"errors"
	"fmt"
	"sort"

	"lcakp/internal/knapsack"
	"lcakp/internal/rng"
)

// Sentinel errors.
var (
	// ErrBadModel indicates invalid model or calibration parameters.
	ErrBadModel = errors.New("avgcase: invalid model parameters")
)

// Model is a known generative process for Knapsack items, in raw
// (pre-normalization) units. Implementations must be deterministic
// given the source.
type Model interface {
	// Name identifies the model in reports.
	Name() string
	// SampleItem draws one item from the distribution.
	SampleItem(src *rng.Source) knapsack.Item
}

// UniformModel matches the "uniform" workload family: profit and
// weight independent uniform integers in [1, 1000].
type UniformModel struct{}

var _ Model = UniformModel{}

// Name returns "uniform".
func (UniformModel) Name() string { return "uniform" }

// SampleItem draws from the family's generative process.
func (UniformModel) SampleItem(src *rng.Source) knapsack.Item {
	return knapsack.Item{
		Profit: float64(src.Intn(1000) + 1),
		Weight: float64(src.Intn(1000) + 1),
	}
}

// ZipfModel matches the "zipf" workload family: Zipf profits over
// ranks with uniform weights.
type ZipfModel struct {
	// N is the rank range of the Zipf draw (the instance size the
	// family was generated with).
	N int
	// Alpha is the tail exponent (0 selects the family default 1.1).
	Alpha float64

	zipf *rng.Zipfian
}

var _ Model = (*ZipfModel)(nil)

// NewZipfModel precomputes the rank sampler.
func NewZipfModel(n int, alpha float64) (*ZipfModel, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadModel, n)
	}
	if alpha == 0 {
		alpha = 1.1
	}
	if alpha < 0 {
		return nil, fmt.Errorf("%w: alpha=%v", ErrBadModel, alpha)
	}
	return &ZipfModel{N: n, Alpha: alpha, zipf: rng.NewZipf(n, alpha)}, nil
}

// Name returns "zipf".
func (*ZipfModel) Name() string { return "zipf" }

// SampleItem draws from the family's generative process.
func (m *ZipfModel) SampleItem(src *rng.Source) knapsack.Item {
	rank := m.zipf.Draw(src)
	profit := float64(100000 / rank)
	if profit < 1 {
		profit = 1
	}
	return knapsack.Item{
		Profit: profit,
		Weight: float64(src.Intn(1000) + 1),
	}
}

// ThresholdLCA is the average-case LCA: a fixed efficiency threshold
// calibrated offline from the model. Query cost is one point query;
// consistency is exact (the decision function is deterministic).
type ThresholdLCA struct {
	// eStar is the inclusion threshold in NORMALIZED efficiency units
	// (the units the LCA sees after the instance is normalized so
	// total profit = total weight = 1).
	eStar float64
	// capacityFraction and margin are retained for reporting.
	capacityFraction float64
	margin           float64
}

// Calibration controls threshold computation.
type Calibration struct {
	// CapacityFraction is the promised capacity as a fraction of total
	// item weight (the workload generator's parameter). Must be in
	// (0, 1].
	CapacityFraction float64
	// Margin is the relative safety margin on the weight budget
	// absorbing the O(sqrt(n)) concentration slack: the threshold is
	// calibrated to fill only (1-Margin) of the capacity in
	// expectation. 0 selects 0.05.
	Margin float64
	// MonteCarloSamples sizes the offline calibration draw. 0 selects
	// 200000.
	MonteCarloSamples int
	// Seed drives the calibration draw; two deployments calibrating
	// with the same seed get bit-identical thresholds.
	Seed uint64
}

// NewThresholdLCA calibrates the efficiency threshold e* for the model
// by Monte Carlo: draw a large item sample from the model, sort by
// efficiency, and find the threshold at which the expected weight of
// {efficiency >= e*} fills (1-Margin) of the expected capacity. All
// quantities are converted to normalized units using the model's
// expected profit/weight totals, so the threshold applies directly to
// the normalized instances the rest of the system uses.
func NewThresholdLCA(model Model, cal Calibration) (*ThresholdLCA, error) {
	if model == nil {
		return nil, fmt.Errorf("%w: nil model", ErrBadModel)
	}
	if cal.CapacityFraction <= 0 || cal.CapacityFraction > 1 {
		return nil, fmt.Errorf("%w: capacity fraction %v", ErrBadModel, cal.CapacityFraction)
	}
	if cal.Margin == 0 {
		cal.Margin = 0.05
	}
	if cal.Margin < 0 || cal.Margin >= 1 {
		return nil, fmt.Errorf("%w: margin %v", ErrBadModel, cal.Margin)
	}
	if cal.MonteCarloSamples == 0 {
		cal.MonteCarloSamples = 200_000
	}
	if cal.MonteCarloSamples < 100 {
		return nil, fmt.Errorf("%w: %d Monte Carlo samples", ErrBadModel, cal.MonteCarloSamples)
	}

	src := rng.New(cal.Seed).Derive("avgcase-calibration", model.Name())
	items := make([]knapsack.Item, cal.MonteCarloSamples)
	var totalP, totalW float64
	for i := range items {
		items[i] = model.SampleItem(src)
		totalP += items[i].Profit
		totalW += items[i].Weight
	}
	// Sort by efficiency, descending (greedy order).
	sort.Slice(items, func(a, b int) bool {
		return items[a].Efficiency() > items[b].Efficiency()
	})
	// Walk the greedy prefix until the weight budget — the capacity
	// shrunk by the safety margin — is filled; the efficiency at the
	// stopping point is the raw-unit threshold.
	budget := cal.CapacityFraction * (1 - cal.Margin) * totalW
	used := 0.0
	eRaw := items[0].Efficiency()
	for _, it := range items {
		if used+it.Weight > budget {
			eRaw = it.Efficiency()
			break
		}
		used += it.Weight
		eRaw = it.Efficiency()
	}

	// Convert to normalized units: normalized efficiency multiplies by
	// E[total weight]/E[total profit] (both totals scale to 1).
	meanP := totalP / float64(cal.MonteCarloSamples)
	meanW := totalW / float64(cal.MonteCarloSamples)
	if meanP <= 0 || meanW <= 0 {
		return nil, fmt.Errorf("%w: degenerate model moments (%v, %v)", ErrBadModel, meanP, meanW)
	}
	return &ThresholdLCA{
		eStar:            eRaw * meanW / meanP,
		capacityFraction: cal.CapacityFraction,
		margin:           cal.Margin,
	}, nil
}

// Threshold returns the calibrated normalized-efficiency threshold.
func (l *ThresholdLCA) Threshold() float64 { return l.eStar }

// Decide answers a membership query from the queried item alone: one
// point query, no sampling, deterministic.
func (l *ThresholdLCA) Decide(item knapsack.Item) bool {
	return item.Efficiency() >= l.eStar
}

// Solve materializes the full solution over a (normalized) instance —
// for validation only, as with the main LCA.
func (l *ThresholdLCA) Solve(in *knapsack.Instance) *knapsack.Solution {
	var chosen []int
	for i, it := range in.Items {
		if l.Decide(it) {
			chosen = append(chosen, i)
		}
	}
	return knapsack.NewSolution(chosen...)
}
