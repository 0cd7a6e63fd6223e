package core

import (
	"context"
	"fmt"
	"math"

	"lcakp/internal/knapsack"
	"lcakp/internal/rng"
)

// ValueEstimate is the result of the IKY12-style constant-time
// approximation of the optimal Knapsack value (the algorithm the
// paper's positive result builds on; see Section 4 and Lemma 4.4).
type ValueEstimate struct {
	// TildeOPT is the (near-)optimal value of the constructed proxy
	// instance Ĩ.
	TildeOPT float64
	// Estimate is the paper's estimator OPT(Ĩ) - ε, a (1, 6ε)-additive
	// approximation of OPT(I) (Lemma 4.4) up to the inner solver's
	// own ε/4 slack.
	Estimate float64
	// TildeItems is the size of Ĩ — O(1/ε²), independent of n.
	TildeItems int
	// LargeMass is the collected large-item profit mass (diagnostic).
	LargeMass float64
}

// EstimateOPT runs the value-approximation algorithm of Ito–Kiyoshima–
// Yoshida (the paper's Lemma 4.4 pipeline): collect the large items by
// weighted sampling, estimate the Equally Partitioning Sequence,
// construct the proxy instance Ĩ, and solve Ĩ (with the FPTAS at
// accuracy ε/4, standing in for IKY12's exponential-in-|Ĩ| exact
// solve). The returned estimate approximates OPT(I) to an additive
// O(ε) using a number of samples independent of n.
//
// fresh supplies this run's sampling randomness; as with Query, the
// reproducible internal randomness comes from the shared seed, so two
// runs return the same estimate w.h.p.
func (l *LCAKP) EstimateOPT(ctx context.Context, fresh *rng.Source) (ValueEstimate, error) {
	eps := l.params.Epsilon
	s := l.scratch.Get().(*runScratch)
	defer l.scratch.Put(s)

	large, largeMass, err := l.collectLarge(ctx, fresh.Derive("large"), s.draws)
	if err != nil {
		return ValueEstimate{}, err
	}
	var thresholds []float64
	if 1-largeMass >= eps {
		thresholds, _, _, err = l.estimateEPS(ctx, fresh.Derive("eps"), largeMass, s)
		if err != nil {
			return ValueEstimate{}, err
		}
	}
	tilde := l.buildTilde(large, thresholds)
	if len(tilde.items) == 0 {
		// Nothing above the classification thresholds: OPT is at most
		// the garbage+small slack, which the estimator reports as 0.
		return ValueEstimate{TildeOPT: 0, Estimate: 0, TildeItems: 0, LargeMass: largeMass}, nil
	}

	// Materialize Ĩ as a plain instance and solve it near-exactly.
	items := make([]knapsack.Item, len(tilde.items))
	for i, ti := range tilde.items {
		items[i] = ti.item
	}
	inst := &knapsack.Instance{Items: items, Capacity: tilde.capacity}
	innerEps := math.Max(0.01, eps/4)
	res, err := knapsack.FPTAS(inst, innerEps)
	if err != nil {
		// The Ĩ table is O(1/ε²) items with bounded profits; a failure
		// here indicates degenerate inputs rather than scale, so fall
		// back to the exact branch-and-bound before giving up.
		bb, bbErr := knapsack.BranchAndBound(inst, 1<<22)
		if bbErr != nil {
			return ValueEstimate{}, fmt.Errorf("core: solve Ĩ: %w (b&b: %v)", err, bbErr)
		}
		res = bb
	}

	estimate := res.Profit - eps
	if estimate < 0 {
		estimate = 0
	}
	return ValueEstimate{
		TildeOPT:   res.Profit,
		Estimate:   estimate,
		TildeItems: len(items),
		LargeMass:  largeMass,
	}, nil
}
