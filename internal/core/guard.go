package core

import (
	"math"
	"sort"

	"lcakp/internal/repro"
	"lcakp/internal/rng"
)

// weightGuard is the reproducible safety estimator for the tied-EPS
// degenerate case (see convertGreedy): it answers "if the small-item
// threshold were lowered to v, would the solution still fit?" from the
// same profit-weighted sample the EPS was estimated from.
//
// The estimate is unbiased by construction: under profit-weighted
// sampling, E[1{item small, eff ≥ v} / eff] over draws equals
// Σ w_i · 1{item i small, eff_i ≥ v} — exactly the weight the decision
// rule would admit. The guard approves a candidate only with a
// (1 + 3ε) multiplicative margin (the Ĩ band-mass slack of Lemma 4.7)
// plus three standard errors, so approved extensions keep feasibility
// with overwhelming probability. Estimates are rounded reproducibly
// (repro.RStat) with randomness derived from the shared seed, so two
// runs make the same approve/reject decisions w.h.p.
type weightGuard struct {
	// effs holds the efficiency of each small item draw in the EPS
	// sample; draws of garbage or large items contribute zeros and are
	// accounted via total. estimate takes the inverses where it reads
	// them: only tied-EPS instances consult the guard, so a table of
	// them built with the guard would cost every run for nothing.
	effs []float64
	// total is the full draw count (the estimator divides by it).
	total int
	// eps is the run's ε (margin parameter).
	eps float64
	// capacity is the instance weight limit (for the rounding scale).
	capacity float64
	// shared derives the reproducible rounding randomness.
	shared *rng.Source
}

// newWeightGuard builds a guard from the EPS sample's small-item
// efficiencies, which it keeps without copying. totalDraws is the full
// Q̄ size including filtered draws.
func newWeightGuard(smallEffs []float64, totalDraws int, eps, capacity float64, shared *rng.Source) *weightGuard {
	return &weightGuard{
		effs:     smallEffs,
		total:    totalDraws,
		eps:      eps,
		capacity: capacity,
		shared:   shared,
	}
}

// estimate returns the reproducibly rounded weight estimate Ŵ(v) for
// the small mass at efficiency ≥ v, plus its (plain) standard error.
// candidateIdx keys the shared randomness so each candidate group gets
// its own stable rounding grid.
func (g *weightGuard) estimate(v float64, candidateIdx int) (rounded, stderr float64) {
	if g.total == 0 {
		return 0, 0
	}
	sum, sumSq := 0.0, 0.0
	for _, e := range g.effs {
		// A non-positive efficiency, which the EPS sample never keeps,
		// weighs nothing.
		if e >= v && e > 0 {
			x := 1 / e
			sum += x
			sumSq += float64(x * x)
		}
	}
	n := float64(g.total)
	mean := sum / n
	variance := sumSq/n - float64(mean*mean)
	if variance < 0 {
		variance = 0
	}
	stderr = math.Sqrt(variance / n)

	// Reproducible rounding: grid scale tied to the capacity so the
	// approve/reject comparison is stable across runs.
	alpha := g.capacity * g.eps / 10
	if alpha <= 0 {
		return mean, stderr
	}
	r := repro.RStat{Lo: 0, Hi: mean + float64(alpha*2) + 1, Alpha: alpha}
	rounded, err := r.Estimate([]float64{mean}, g.shared.DeriveIndex("guard", candidateIdx))
	if err != nil {
		// Defensive: fall back to the raw mean (still correct, merely
		// not reproducibility-rounded).
		return mean, stderr
	}
	return rounded, stderr
}

// approves reports whether lowering the small threshold to v keeps the
// solution within slack (the capacity left after the large items),
// with the (1+3ε) band-mass margin and three standard errors.
func (g *weightGuard) approves(v, slack float64, candidateIdx int) bool {
	if slack <= 0 {
		return false
	}
	w, stderr := g.estimate(v, candidateIdx)
	return float64(w*(1+float64(3*g.eps)))+float64(3*stderr) <= slack
}

// improveESmall tries to lower e_small to a more inclusive candidate
// among the distinct EPS group values, approving only guard-safe
// extensions. current is the paper-path choice (-1 for none); slack is
// the remaining capacity after the selected large items. It returns
// the (possibly improved) threshold.
func (g *weightGuard) improveESmall(thresholds []float64, current, slack float64) float64 {
	if g == nil || len(thresholds) == 0 {
		return current
	}
	// Distinct group values, ascending (most inclusive first).
	distinct := make([]float64, 0, len(thresholds))
	for _, v := range thresholds {
		if len(distinct) == 0 || distinct[len(distinct)-1] != v {
			distinct = append(distinct, v)
		}
	}
	sort.Float64s(distinct)
	for idx, v := range distinct {
		if current >= 0 && v >= current {
			break // not more inclusive than the proven choice
		}
		if g.approves(v, slack, idx) {
			return v
		}
	}
	return current
}
