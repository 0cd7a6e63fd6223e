// Package lowerbound turns the paper's impossibility theorems into
// executable games. Lower bounds cannot be "run", but their hard
// instances and the reductions' win conditions can: every strategy one
// can implement must exhibit the predicted failure — success
// probability stuck near chance until the query budget grows linearly
// in n — which is the falsifiable content of Theorems 3.2–3.4. The
// package also implements the weighted-sampling strategy that
// *circumvents* the OR lower bound, connecting the two halves of the
// paper in one experiment.
package lowerbound

import (
	"errors"
	"fmt"

	"lcakp/internal/rng"
	"lcakp/internal/stats"
)

// Sentinel errors for game configuration.
var (
	// ErrBadGame indicates invalid game parameters.
	ErrBadGame = errors.New("lowerbound: invalid game parameters")
)

// ORInstance is the reduction instance I(x) of Theorems 3.2/3.3: n
// items with weight 1 and capacity 1; items 0..n-2 have profit x_i ∈
// {0,1}; the last item has profit beta (1/2 in Theorem 3.2, any
// 0 < beta < alpha in Theorem 3.3). The last item is in the
// optimal/alpha-approximate solution iff OR(x) = 0.
type ORInstance struct {
	n       int
	beta    float64
	planted int // index of the single 1-bit, or -1 when OR(x)=0

	queries int // point queries consumed so far
	samples int // weighted samples consumed so far
}

// NewORInstance builds an instance with n items. planted < 0 encodes
// the all-zeros input; otherwise x_planted = 1 (the hardest inputs
// have at most one set bit, which is what the OR lower bound's
// hardest-distribution argument uses).
func NewORInstance(n int, planted int, beta float64) (*ORInstance, error) {
	if n < 2 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadGame, n)
	}
	if planted >= n-1 {
		return nil, fmt.Errorf("%w: planted=%d out of [0,%d)", ErrBadGame, planted, n-1)
	}
	if beta <= 0 || beta >= 1 {
		return nil, fmt.Errorf("%w: beta=%v", ErrBadGame, beta)
	}
	if planted < 0 {
		planted = -1
	}
	return &ORInstance{n: n, beta: beta, planted: planted}, nil
}

// N returns the number of items.
func (o *ORInstance) N() int { return o.n }

// OR returns the hidden OR(x) value.
func (o *ORInstance) OR() bool { return o.planted >= 0 }

// LastInSolution reports the ground truth of the single LCA query the
// reduction makes: whether the last item belongs to the (unique)
// optimal — equivalently alpha-approximate — solution, i.e. OR(x) = 0.
func (o *ORInstance) LastInSolution() bool { return !o.OR() }

// QueryProfit reveals the profit of item i, costing one point query
// (weights are all 1 and known from the construction, so only profits
// carry information).
func (o *ORInstance) QueryProfit(i int) (float64, error) {
	if i < 0 || i >= o.n {
		return 0, fmt.Errorf("%w: index %d", ErrBadGame, i)
	}
	if i == o.n-1 {
		// The reduction answers queries to the last item for free.
		return o.beta, nil
	}
	o.queries++
	if i == o.planted {
		return 1, nil
	}
	return 0, nil
}

// Sample draws an item index proportionally to profit — the *extra*
// access of Section 4, used here to demonstrate how weighted sampling
// sidesteps the lower bound. On OR(x)=1 instances the planted item
// carries mass 1/(1+beta); on OR(x)=0 instances only the last item has
// mass.
func (o *ORInstance) Sample(src *rng.Source) int {
	o.samples++
	if o.planted < 0 {
		return o.n - 1
	}
	if src.Float64() < 1/(1+o.beta) {
		return o.planted
	}
	return o.n - 1
}

// Cost returns the point queries and samples consumed so far.
func (o *ORInstance) Cost() (queries, samples int) { return o.queries, o.samples }

// ORStrategy is an algorithm playing the reduction game: given access
// to the instance and a budget, it must answer the single LCA query
// "is the last item in the solution?".
type ORStrategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Answer plays one game. It may spend at most budget accesses
	// (point queries and/or samples, per the strategy's access model);
	// src supplies its randomness.
	Answer(inst *ORInstance, budget int, src *rng.Source) bool
}

// RandomProbe probes `budget` uniformly random bit positions and
// answers "in solution" (OR = 0) iff it found no 1-bit. This is the
// optimal shape of a point-query algorithm for OR: its success
// probability is 1/2 + budget/(2(n-1)) on the hard input distribution,
// so reaching the 2/3 correctness of Definition 2.2 needs
// budget = Ω(n).
type RandomProbe struct{}

var _ ORStrategy = RandomProbe{}

// Name returns "random-probe".
func (RandomProbe) Name() string { return "random-probe" }

// Answer probes without replacement (sampling a fresh permutation
// prefix) and reports whether all probed bits were zero.
func (RandomProbe) Answer(inst *ORInstance, budget int, src *rng.Source) bool {
	n := inst.N() - 1
	if budget > n {
		budget = n
	}
	// Partial Fisher–Yates: probe a uniform `budget`-subset.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for probe := 0; probe < budget; probe++ {
		swap := probe + src.Intn(n-probe)
		idx[probe], idx[swap] = idx[swap], idx[probe]
		p, err := inst.QueryProfit(idx[probe])
		if err != nil {
			return false
		}
		if p > 0 {
			return false // found a 1-bit: OR=1, last item not optimal
		}
	}
	return true
}

// WeightedSampling is the circumvention strategy: it spends its budget
// on weighted samples instead of point queries and answers "in
// solution" iff every sample returned the last item. A single 1-bit
// captures profit mass 1/(1+beta) >= 2/3, so O(1) samples suffice at
// any n — the qualitative content of Theorem 4.1 in this game.
type WeightedSampling struct{}

var _ ORStrategy = WeightedSampling{}

// Name returns "weighted-sampling".
func (WeightedSampling) Name() string { return "weighted-sampling" }

// Answer draws budget samples and reports whether none hit a 1-bit.
func (WeightedSampling) Answer(inst *ORInstance, budget int, src *rng.Source) bool {
	for s := 0; s < budget; s++ {
		if inst.Sample(src) != inst.N()-1 {
			return false
		}
	}
	return true
}

// ORGameResult is the outcome of a batch of reduction games at one
// (n, budget) point.
type ORGameResult struct {
	N       int
	Budget  int
	Success stats.Proportion
	// MeanQueries and MeanSamples are the average access counts per
	// game, split by access type.
	MeanQueries float64
	MeanSamples float64
}

// PlayORGame runs `trials` independent reduction games: each trial
// plants a 1-bit with probability 1/2 (at a uniform position — the
// hard input distribution of the OR lower bound), lets the strategy
// answer within the budget, and scores it against the ground truth.
func PlayORGame(strategy ORStrategy, n, budget, trials int, beta float64, seed uint64) (ORGameResult, error) {
	if trials <= 0 || budget < 0 {
		return ORGameResult{}, fmt.Errorf("%w: trials=%d budget=%d", ErrBadGame, trials, budget)
	}
	root := rng.New(seed).Derive("or-game", strategy.Name())
	successes := 0
	totalQ, totalS := 0, 0
	for trial := 0; trial < trials; trial++ {
		src := root.DeriveIndex("trial", trial)
		planted := -1
		if src.Float64() < 0.5 {
			planted = src.Intn(n - 1)
		}
		inst, err := NewORInstance(n, planted, beta)
		if err != nil {
			return ORGameResult{}, err
		}
		answer := strategy.Answer(inst, budget, src.Derive("strategy"))
		if answer == inst.LastInSolution() {
			successes++
		}
		q, s := inst.Cost()
		totalQ += q
		totalS += s
	}
	prop, err := stats.NewProportion(successes, trials)
	if err != nil {
		return ORGameResult{}, err
	}
	return ORGameResult{
		N:           n,
		Budget:      budget,
		Success:     prop,
		MeanQueries: float64(totalQ) / float64(trials),
		MeanSamples: float64(totalS) / float64(trials),
	}, nil
}

// BudgetForSuccess performs a doubling search for the smallest budget
// at which the strategy's measured success rate reaches target. It
// returns the budget found (capped at n) and the result at that
// budget.
func BudgetForSuccess(strategy ORStrategy, n, trials int, beta, target float64, seed uint64) (ORGameResult, error) {
	budget := 1
	for {
		res, err := PlayORGame(strategy, n, budget, trials, beta, seed)
		if err != nil {
			return ORGameResult{}, err
		}
		if res.Success.Estimate >= target || budget >= n {
			return res, nil
		}
		budget *= 2
	}
}
