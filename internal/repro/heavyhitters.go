package repro

import (
	"fmt"
	"sort"

	"lcakp/internal/rng"
)

// HeavyHitters is a reproducible heavy-hitters estimator in the spirit
// of ILPS22's rHeavyHitters: given samples from a distribution over
// item identifiers, return every identifier whose probability mass
// exceeds a threshold — such that two runs on fresh samples (with the
// same shared randomness) return the exact same set w.h.p.
//
// The mechanism is the same randomized-cutoff idea used throughout the
// package: instead of comparing empirical frequencies against the
// fixed threshold (where two runs straddle the boundary on items with
// mass ≈ threshold), frequencies are compared against a cutoff drawn
// uniformly from [Threshold-Slack, Threshold+Slack] using the shared
// source. Two runs disagree on an item only if their two frequency
// estimates straddle the shared cutoff — probability O(eta/Slack) per
// item with estimates eta-accurate.
//
// In the LCA, heavy hitters offer an alternative to the plain
// coupon-collector pass for assembling the large-item set M: the
// returned set is not merely complete w.h.p. but *identical across
// runs* w.h.p., removing one source of rule inconsistency (experiment
// E5's UseHeavyHitters ablation measures the effect).
type HeavyHitters struct {
	// Threshold is the target mass: items with probability above
	// Threshold+Slack are always returned (w.h.p.), items below
	// Threshold-Slack never.
	Threshold float64
	// Slack is the randomization half-width (0 selects Threshold/4).
	Slack float64
}

// Hits returns the identifiers of samples whose empirical frequency
// clears the randomized cutoff, sorted ascending. samples is a
// multiset of item identifiers (one per draw). shared supplies the
// cutoff randomness and must be derived identically across runs.
func (h HeavyHitters) Hits(samples []int, shared *rng.Source) ([]int, error) {
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	if shared == nil {
		return nil, fmt.Errorf("%w: HeavyHitters requires shared randomness", ErrBadParam)
	}
	if h.Threshold <= 0 || h.Threshold > 1 {
		return nil, fmt.Errorf("%w: threshold=%v", ErrBadParam, h.Threshold)
	}
	slack := h.Slack
	if slack == 0 {
		slack = h.Threshold / 4
	}
	if slack < 0 || slack >= h.Threshold {
		return nil, fmt.Errorf("%w: slack=%v for threshold=%v", ErrBadParam, slack, h.Threshold)
	}

	cutoff := h.Threshold + float64((float64(shared.Float64()*2)-1)*slack)

	counts := make(map[int]int, len(samples)/8)
	for _, id := range samples {
		counts[id]++
	}
	need := cutoff * float64(len(samples))
	hits := make([]int, 0, len(counts))
	for id, c := range counts {
		if float64(c) >= need {
			hits = append(hits, id)
		}
	}
	sort.Ints(hits)
	return hits, nil
}
