package repro

import (
	"fmt"
	"math"

	"lcakp/internal/rng"
)

// RStat is the reproducible statistical-query estimator of ILPS22
// (their rSTAT routine): estimate the mean of a [Lo, Hi]-bounded
// statistic over a distribution, such that two runs on fresh samples
// with shared internal randomness return the exact same value w.h.p.
//
// The mechanism is randomized rounding in value space: the empirical
// mean is snapped to a grid of width Alpha whose offset is drawn
// uniformly from the shared source. Two runs disagree only when their
// empirical means straddle a shared grid boundary — probability at
// most |mean₁ − mean₂| / Alpha, which Hoeffding bounds by
// O((Hi−Lo) / (Alpha·√n)). The returned value deviates from the true
// mean by at most the estimation error plus Alpha.
//
// This is the simplest member of the reproducibility toolbox (the
// quantile estimators in this package are its order-statistic
// cousins); it is exposed both for completeness of the ILPS22
// reconstruction and for callers that need reproducible scalar
// statistics (e.g. mass estimates).
type RStat struct {
	// Lo and Hi bound the statistic's range.
	Lo, Hi float64
	// Alpha is the rounding-grid width (the reproducibility/accuracy
	// trade-off knob). 0 selects (Hi-Lo)/100.
	Alpha float64
}

// Estimate returns the reproducibly rounded mean of values. shared
// supplies the grid-offset randomness and must be derived identically
// across runs.
func (r RStat) Estimate(values []float64, shared *rng.Source) (float64, error) {
	if len(values) == 0 {
		return 0, ErrNoSamples
	}
	if shared == nil {
		return 0, fmt.Errorf("%w: RStat requires shared randomness", ErrBadParam)
	}
	if !(r.Hi > r.Lo) || math.IsNaN(r.Lo) || math.IsInf(r.Hi, 0) {
		return 0, fmt.Errorf("%w: range [%v, %v]", ErrBadParam, r.Lo, r.Hi)
	}
	alpha := r.Alpha
	if alpha == 0 {
		alpha = (r.Hi - r.Lo) / 100
	}
	if alpha <= 0 || alpha > r.Hi-r.Lo {
		return 0, fmt.Errorf("%w: alpha=%v for range [%v, %v]", ErrBadParam, alpha, r.Lo, r.Hi)
	}

	sum := 0.0
	for _, v := range values {
		if v < r.Lo || v > r.Hi || math.IsNaN(v) {
			return 0, fmt.Errorf("%w: value %v outside [%v, %v]", ErrBadParam, v, r.Lo, r.Hi)
		}
		sum += v
	}
	mean := sum / float64(len(values))

	// Snap to the randomly offset grid: cell boundaries at
	// Lo + offset + k*alpha; output the cell's center, clamped to the
	// statistic's range.
	offset := shared.Float64() * alpha
	cell := math.Floor((mean - r.Lo - offset) / alpha)
	out := r.Lo + offset + float64((cell+0.5)*alpha)
	if out < r.Lo {
		out = r.Lo
	}
	if out > r.Hi {
		out = r.Hi
	}
	return out, nil
}
