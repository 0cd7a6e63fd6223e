package repro

import (
	"fmt"

	"lcakp/internal/rng"
)

// PairStats summarizes a reproducibility measurement: over independent
// trial pairs, how often the two runs returned the exact same index,
// and the average absolute index gap when they differed.
type PairStats struct {
	Trials    int
	Agreement float64 // fraction of trials with identical outputs
	MeanGap   float64 // mean |out1-out2| over disagreeing trials
}

// MeasureReproducibility estimates an estimator's reproducibility in
// the sense of Definition 2.5: for each trial it derives one shared
// randomness stream, draws two independent fresh sample sets from gen,
// runs the estimator twice, and records whether the outputs match.
//
// gen must return a new i.i.d. sample (of domain indices) each call,
// using the provided source for randomness.
func MeasureReproducibility(
	est Estimator,
	gen func(src *rng.Source) []int,
	domainSize int,
	p float64,
	trials int,
	seed uint64,
) (PairStats, error) {
	if trials <= 0 {
		return PairStats{}, fmt.Errorf("%w: trials=%d", ErrBadParam, trials)
	}
	root := rng.New(seed)
	agree := 0
	gapSum := 0.0
	gapCount := 0
	for trial := 0; trial < trials; trial++ {
		// One internal-randomness stream per trial, reconstructed
		// identically for both runs (same derivation labels).
		shared1 := root.DeriveIndex("shared", trial)
		shared2 := root.DeriveIndex("shared", trial)

		samplesA := gen(root.DeriveIndex("samples-a", trial))
		samplesB := gen(root.DeriveIndex("samples-b", trial))
		freshA := root.DeriveIndex("fresh-a", trial)
		freshB := root.DeriveIndex("fresh-b", trial)

		outA, err := est.Quantile(NewECDF(samplesA), domainSize, p, shared1, freshA)
		if err != nil {
			return PairStats{}, fmt.Errorf("trial %d run A: %w", trial, err)
		}
		outB, err := est.Quantile(NewECDF(samplesB), domainSize, p, shared2, freshB)
		if err != nil {
			return PairStats{}, fmt.Errorf("trial %d run B: %w", trial, err)
		}
		if outA == outB {
			agree++
		} else {
			gap := outA - outB
			if gap < 0 {
				gap = -gap
			}
			gapSum += float64(gap)
			gapCount++
		}
	}
	stats := PairStats{
		Trials:    trials,
		Agreement: float64(agree) / float64(trials),
	}
	if gapCount > 0 {
		stats.MeanGap = gapSum / float64(gapCount)
	}
	return stats, nil
}

// MeasureAccuracy estimates how often the estimator's output is a
// tau-approximate p-quantile of the true distribution, given the true
// CDF over domain indices (cdf(i) = P[X <= i]). It runs the estimator
// on trials independent fresh samples.
func MeasureAccuracy(
	est Estimator,
	gen func(src *rng.Source) []int,
	cdf func(i int) float64,
	domainSize int,
	p, tau float64,
	trials int,
	seed uint64,
) (float64, error) {
	if trials <= 0 {
		return 0, fmt.Errorf("%w: trials=%d", ErrBadParam, trials)
	}
	root := rng.New(seed)
	good := 0
	for trial := 0; trial < trials; trial++ {
		shared := root.DeriveIndex("shared", trial)
		fresh := root.DeriveIndex("fresh", trial)
		samples := gen(root.DeriveIndex("samples", trial))
		out, err := est.Quantile(NewECDF(samples), domainSize, p, shared, fresh)
		if err != nil {
			return 0, fmt.Errorf("trial %d: %w", trial, err)
		}
		// out is a tau-approximate p-quantile iff
		// P[X <= out] >= p - tau and P[X >= out] >= 1 - p - tau.
		le := cdf(out)
		ge := 1.0
		if out > 0 {
			ge = 1 - cdf(out-1)
		}
		if le >= p-tau && ge >= 1-p-tau {
			good++
		}
	}
	return float64(good) / float64(trials), nil
}
