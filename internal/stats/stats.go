// Package stats provides the small statistical toolkit the experiment
// harness uses to summarize measurements: means, exact sample
// quantiles, and Wilson confidence intervals for proportions.
// Everything is deterministic and allocation-light.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNoData indicates a proportion requested over zero trials.
var ErrNoData = errors.New("stats: no data")

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quantile returns the empirical p-quantile of xs using the
// nearest-rank method on a sorted copy. It returns NaN for empty
// input; p is clamped into [0, 1].
func Quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	k := int(math.Ceil(p * float64(len(sorted))))
	if k < 1 {
		k = 1
	}
	return sorted[k-1]
}

// z95 is the two-sided 95% standard-normal critical value.
const z95 = 1.959963984540054

// Proportion is an estimated probability with its Wilson 95% interval.
type Proportion struct {
	Successes int
	Trials    int
	Estimate  float64
	Lo        float64
	Hi        float64
}

// NewProportion computes the Wilson score interval for successes out
// of trials, the recommended interval for success probabilities near 0
// or 1 (which the lower-bound games produce constantly).
func NewProportion(successes, trials int) (Proportion, error) {
	if trials <= 0 {
		return Proportion{}, fmt.Errorf("%w: trials=%d", ErrNoData, trials)
	}
	if successes < 0 || successes > trials {
		return Proportion{}, fmt.Errorf("stats: successes %d out of range [0, %d]", successes, trials)
	}
	n := float64(trials)
	p := float64(successes) / n
	z := z95
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	half := z * math.Sqrt(p*(1-p)/n+z2/(4*n*n)) / denom
	return Proportion{
		Successes: successes,
		Trials:    trials,
		Estimate:  p,
		Lo:        math.Max(0, center-half),
		Hi:        math.Min(1, center+half),
	}, nil
}
