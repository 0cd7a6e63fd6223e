package repro

import (
	"fmt"
	"math"

	"lcakp/internal/rng"
)

// Estimator is a (possibly reproducible) approximate quantile
// estimator over a finite domain of indices [0, domainSize).
//
// Quantile estimates the p-quantile of the distribution underlying a
// sample, given as its empirical CDF: a caller that estimates several
// quantiles of one sample (the EPS thresholds of one derivation)
// builds the ECDF once. Two kinds of randomness are distinguished, mirroring
// Definition 2.5 of the paper (reproducibility):
//
//   - shared is the algorithm's *internal* randomness r. Reproducible
//     estimators consume it deterministically, so two runs given
//     sources derived from the same root seed make identical random
//     choices.
//   - fresh is per-run randomness, used only where the algorithm must
//     genuinely re-randomize (e.g. the +/-infinity padding mixture of
//     Algorithm 1). Estimators that need no fresh randomness accept
//     nil.
//
// A rho-reproducible estimator returns the same index on two runs with
// independent samples (same distribution) and the same shared source,
// with probability at least 1-rho.
type Estimator interface {
	// Name identifies the estimator in reports and ablation tables.
	Name() string
	// Quantile returns a domain index approximating the p-quantile of
	// the sample behind cdf.
	Quantile(cdf *ECDF, domainSize int, p float64, shared, fresh *rng.Source) (int, error)
}

// Naive is the plain empirical quantile: accurate, cheap, and NOT
// reproducible — the ablation baseline that exhibits the paper's
// "second obstacle" (inconsistent LCA answers).
type Naive struct{}

var _ Estimator = Naive{}

// Name returns "naive".
func (Naive) Name() string { return "naive" }

// Quantile returns the empirical p-quantile of the samples.
func (Naive) Quantile(cdf *ECDF, domainSize int, p float64, _, _ *rng.Source) (int, error) {
	if err := checkQuantileArgs(cdf, domainSize, p, 0); err != nil {
		return 0, err
	}
	x, ok := cdf.Quantile(p)
	if !ok {
		return 0, ErrNoSamples
	}
	return x, nil
}

// Snap estimates the quantile at a randomized rank and snaps the
// result onto a randomly shifted index grid, both randomizations drawn
// from the shared source. On distributions whose quantile estimates
// concentrate within much less than one grid cell, two runs snap to
// the same cell with high probability; on adversarially dense
// distributions it can fail, which is precisely the gap between a
// cheap heuristic and the trie algorithm. Tau is the rank-randomization
// width; Grid is the snap cell size in domain indices (0 selects
// domainSize/64, minimum 1).
type Snap struct {
	Tau  float64
	Grid int
}

var _ Estimator = Snap{}

// Name returns "snap".
func (Snap) Name() string { return "snap" }

// Quantile estimates at a randomized rank and snaps to the shared grid.
func (s Snap) Quantile(cdf *ECDF, domainSize int, p float64, shared, _ *rng.Source) (int, error) {
	if err := checkQuantileArgs(cdf, domainSize, p, s.Tau); err != nil {
		return 0, err
	}
	if shared == nil {
		return 0, fmt.Errorf("%w: Snap requires shared randomness", ErrBadParam)
	}
	grid := s.Grid
	if grid <= 0 {
		grid = domainSize / 64
	}
	if grid < 1 {
		grid = 1
	}
	// Both random draws below come from the shared source, in a fixed
	// order, so two runs use the same randomized rank and grid offset.
	rank := p + (shared.Float64()-0.5)*s.Tau/2
	offset := shared.Intn(grid)

	x, ok := cdf.Quantile(clamp01(rank))
	if !ok {
		return 0, ErrNoSamples
	}
	snapped := ((x-offset)/grid)*grid + offset
	if x < offset { // integer division truncates toward zero
		snapped = offset - grid
	}
	if snapped < 0 {
		snapped = 0
	}
	if snapped >= domainSize {
		snapped = domainSize - 1
	}
	return snapped, nil
}

// Trie is the provably reproducible quantile estimator: binary search
// over the index domain where each level's left/right decision
// compares the empirical CDF at the midpoint against a *randomized
// threshold* p + U(-Tau/2, +Tau/2) drawn from the shared source.
//
// Two runs share all thresholds, so they diverge at a level only if
// their empirical CDF estimates straddle that level's threshold — an
// event of probability O(eta/Tau) per level when each estimate is
// within eta of the true CDF. With eta = rho*Tau/(8*log2(domainSize))
// (see SampleComplexity) the estimator is rho-reproducible and returns
// a Tau-approximate quantile. This is the repository's stand-in for
// the ILPS22 rMedian used by the paper; see DESIGN.md, "Substitutions".
type Trie struct {
	Tau float64
}

var _ Estimator = Trie{}

// Name returns "trie".
func (Trie) Name() string { return "trie" }

// Quantile performs the randomized-threshold binary search.
func (t Trie) Quantile(cdf *ECDF, domainSize int, p float64, shared, _ *rng.Source) (int, error) {
	if err := checkQuantileArgs(cdf, domainSize, p, t.Tau); err != nil {
		return 0, err
	}
	if shared == nil {
		return 0, fmt.Errorf("%w: Trie requires shared randomness", ErrBadParam)
	}
	lo, hi := 0, domainSize-1
	// The loop always runs exactly ceil(log2(domainSize)) iterations'
	// worth of draws along the taken path; paths only diverge between
	// runs at the (rare) straddling events, after which agreement is
	// already lost, so per-path draw alignment is sufficient.
	for lo < hi {
		mid := lo + (hi-lo)/2
		threshold := p + float64((shared.Float64()-0.5)*t.Tau)
		if cdf.FractionLE(mid) >= threshold {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// PaddedMedian implements the paper's Algorithm 1 (rQuantile)
// literally: it reduces the p-quantile over domain X to a median over
// the extended domain {-inf} ∪ X ∪ {+inf} by re-sampling each slot as
// -inf with probability (1-p)/2, a fresh original sample with
// probability 1/2, and +inf with probability p/2, then runs the
// reproducible median (Trie at p=1/2 with accuracy Tau/2) on the
// extended domain and maps the answer back.
//
// The padding mixture is drawn from the *fresh* source — it simulates
// sampling from the derived distribution D' of Section 4.2 — while the
// inner median consumes only shared randomness, exactly as in the
// paper.
type PaddedMedian struct {
	Tau float64
}

var _ Estimator = PaddedMedian{}

// Name returns "padded-median".
func (PaddedMedian) Name() string { return "padded-median" }

// Quantile runs the ±infinity-padding reduction of Algorithm 1.
func (m PaddedMedian) Quantile(cdf *ECDF, domainSize int, p float64, shared, fresh *rng.Source) (int, error) {
	if err := checkQuantileArgs(cdf, domainSize, p, m.Tau); err != nil {
		return 0, err
	}
	if shared == nil || fresh == nil {
		return 0, fmt.Errorf("%w: PaddedMedian requires shared and fresh randomness", ErrBadParam)
	}
	// Extended domain: index 0 is -inf, indices 1..domainSize are the
	// original cells shifted by one, index domainSize+1 is +inf. The
	// original slots take the draws in draw order.
	samples := cdf.Draws()
	extSize := domainSize + 2
	padded := make([]int, 0, 2*len(samples))
	next := 0
	loPad := (1 - p) / 2
	for range 2 * len(samples) {
		u := fresh.Float64()
		switch {
		case u < loPad:
			padded = append(padded, 0)
		case u < loPad+0.5:
			if next < len(samples) {
				padded = append(padded, samples[next]+1)
				next++
			}
		default:
			padded = append(padded, extSize-1)
		}
	}
	if len(padded) == 0 {
		return 0, ErrNoSamples
	}
	inner := Trie{Tau: m.Tau / 2}
	v, err := inner.Quantile(NewECDF(padded, nil), extSize, 0.5, shared, nil)
	if err != nil {
		return 0, fmt.Errorf("padded median: %w", err)
	}
	// Map back, clamping the sentinels to the domain edges.
	switch {
	case v <= 0:
		return 0, nil
	case v >= extSize-1:
		return domainSize - 1, nil
	default:
		return v - 1, nil
	}
}

// checkQuantileArgs validates the common estimator arguments.
func checkQuantileArgs(cdf *ECDF, domainSize int, p, tau float64) error {
	if cdf == nil || cdf.N() == 0 {
		return ErrNoSamples
	}
	if domainSize < 2 {
		return fmt.Errorf("%w: domain size %d", ErrBadParam, domainSize)
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		return fmt.Errorf("%w: quantile p=%v", ErrBadParam, p)
	}
	if tau < 0 || tau > 1 || math.IsNaN(tau) {
		return fmt.Errorf("%w: tau=%v", ErrBadParam, tau)
	}
	return nil
}

// clamp01 clamps x into [0, 1].
func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// SampleComplexity returns the number of samples sufficient for Trie
// with the given accuracy tau to be rho-reproducible and correct with
// failure probability beta over a domain of 2^bits cells: the
// pointwise CDF deviation must stay below eta = rho*tau/(8*bits), and
// Hoeffding gives n >= ln(2*bits/beta) / (2*eta^2).
func SampleComplexity(bits int, tau, rho, beta float64) (int, error) {
	if bits < 1 || tau <= 0 || rho <= 0 || beta <= 0 || beta >= 1 {
		return 0, fmt.Errorf("%w: bits=%d tau=%v rho=%v beta=%v", ErrBadParam, bits, tau, rho, beta)
	}
	eta := rho * tau / (8 * float64(bits))
	n := math.Log(2*float64(bits)/beta) / (2 * eta * eta)
	return int(math.Ceil(n)), nil
}

// LogStar returns the iterated logarithm (base 2) of x: the number of
// times log2 must be applied before the result is <= 1.
func LogStar(x float64) int {
	count := 0
	for x > 1 {
		x = math.Log2(x)
		count++
	}
	return count
}

// PaperRMedianSampleComplexity evaluates the ILPS22 rMedian sample
// complexity formula (Theorem 2.7 of the paper, constants taken at
// face value): (1/(tau^2 rho^2)) * (3/tau^2)^{log* |X|} with
// |X| = 2^bits. It is reported alongside measured sample counts in the
// experiments; for realistic tau and rho it is astronomically large,
// which is why the engineering implementation uses Trie.
func PaperRMedianSampleComplexity(bits int, tau, rho float64) float64 {
	logStar := LogStar(math.Pow(2, float64(bits)))
	return 1 / (tau * tau * rho * rho) * math.Pow(3/(tau*tau), float64(logStar))
}
