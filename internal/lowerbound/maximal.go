package lowerbound

import (
	"fmt"

	"lcakp/internal/rng"
	"lcakp/internal/stats"
)

// MaximalInstance is one draw from the hard input distribution of
// Theorem 3.4: capacity 1, two hidden items i and j with w_i = 3/4 and
// w_j ∈ {1/4, 3/4} (fair coin), all other weights 0 (profits are
// irrelevant for maximal feasibility and fixed to 0).
//
// If w_j = 1/4 the unique maximal feasible solution is ALL items; if
// w_j = 3/4 the two maximal solutions each exclude exactly one of
// {i, j}. An algorithm that answers the query sequence (i, then j)
// without finding the *other* hidden item is forced to say "yes" twice
// and be consistent with an infeasible set — the crux of the theorem.
type MaximalInstance struct {
	n       int
	i, j    int
	wj      float64
	queries int
}

// NewMaximalInstance draws an instance using src. n must be at least 2.
func NewMaximalInstance(n int, src *rng.Source) (*MaximalInstance, error) {
	if n < 2 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadGame, n)
	}
	i := src.Intn(n)
	j := src.Intn(n - 1)
	if j >= i {
		j++
	}
	wj := 0.25
	if src.Float64() < 0.5 {
		wj = 0.75
	}
	return &MaximalInstance{n: n, i: i, j: j, wj: wj}, nil
}

// N returns the number of items.
func (m *MaximalInstance) N() int { return m.n }

// HiddenI returns the index whose weight is always 3/4.
func (m *MaximalInstance) HiddenI() int { return m.i }

// HiddenJ returns the index whose weight is the fair coin.
func (m *MaximalInstance) HiddenJ() int { return m.j }

// QueryWeight reveals the weight of item k, costing one query.
func (m *MaximalInstance) QueryWeight(k int) (float64, error) {
	if k < 0 || k >= m.n {
		return 0, fmt.Errorf("%w: index %d", ErrBadGame, k)
	}
	m.queries++
	switch k {
	case m.i:
		return 0.75, nil
	case m.j:
		return m.wj, nil
	default:
		return 0, nil
	}
}

// Queries returns the number of weight queries consumed.
func (m *MaximalInstance) Queries() int { return m.queries }

// ConsistentMaximal checks the game's win condition: do the two
// answers (for the query sequence s_i then s_j) agree with SOME
// maximal feasible solution of the instance?
//
//   - w_j = 1/4: the unique maximal solution contains both → (yes, yes).
//   - w_j = 3/4: maximal solutions contain exactly one of the two →
//     (yes, no) or (no, yes).
func (m *MaximalInstance) ConsistentMaximal(answerI, answerJ bool) bool {
	if m.wj == 0.25 {
		return answerI && answerJ
	}
	return answerI != answerJ
}

// MaximalStrategy answers single LCA queries "is item k in the maximal
// feasible solution?" with a bounded number of weight queries. Each
// Answer call is an independent run (the LCA is stateless); shared
// supplies the run's read-only random seed — the only channel through
// which two runs may coordinate, exactly as in Definition 2.2.
type MaximalStrategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Answer answers the query for item k using at most budget weight
	// queries.
	Answer(inst *MaximalInstance, k, budget int, shared *rng.Source) bool
}

// ProbeAndRank first queries its own item; weight 0 → "yes"
// immediately (always safe). Weight 3/4 → it probes up to budget-1
// positions chosen by a seed-derived random permutation (the same
// permutation in every run, so two runs probe identically). If it
// finds the other 3/4-item it breaks the tie deterministically with a
// seed-derived priority; if it finds the 1/4-item it answers "yes"; if
// it finds nothing it must guess — and per Lemma 3.5 the only rational
// guess is "yes", which is precisely what makes the pair of answers
// collide on w_j = 3/4 instances.
type ProbeAndRank struct{}

var _ MaximalStrategy = ProbeAndRank{}

// Name returns "probe-and-rank".
func (ProbeAndRank) Name() string { return "probe-and-rank" }

// Answer implements the strategy.
func (ProbeAndRank) Answer(inst *MaximalInstance, k, budget int, shared *rng.Source) bool {
	w, err := inst.QueryWeight(k)
	if err != nil || budget < 1 {
		return false
	}
	if w == 0 {
		// Zero-weight items are in every maximal solution.
		return true
	}
	if w == 0.25 {
		// The 1/4-item always fits alongside the mandatory 3/4-item.
		return true
	}
	// Own weight is 3/4: find the other hidden item if possible.
	perm := shared.Derive("probe-order").Perm(inst.N())
	probes := 0
	for _, cand := range perm {
		if cand == k {
			continue
		}
		if probes >= budget-1 {
			break
		}
		probes++
		cw, err := inst.QueryWeight(cand)
		if err != nil {
			return false
		}
		if cw == 0.25 {
			// Other hidden item is light: everything fits.
			return true
		}
		if cw == 0.75 {
			// Both heavies found: deterministic seed-derived priority
			// keeps the two runs consistent with one another.
			prio := shared.Derive("priority").Perm(inst.N())
			return prio[k] < prio[cand]
		}
	}
	// Nothing found: answering "no" would be wrong in the w_j = 1/4
	// world (probability 1/3 conditioned on what was seen, Lemma 3.5),
	// so answer "yes".
	return true
}

// MaximalGameResult is the outcome of a batch of maximal-feasibility
// games at one (n, budget) point.
type MaximalGameResult struct {
	N           int
	Budget      int
	Success     stats.Proportion
	MeanQueries float64
}

// PlayMaximalGame runs `trials` independent games: draw an instance,
// ask the strategy about s_i and then s_j as two stateless runs
// sharing only the seed, and score the answer pair with
// ConsistentMaximal. Theorem 3.4 predicts success < 4/5 whenever
// budget < n/11.
func PlayMaximalGame(strategy MaximalStrategy, n, budget, trials int, seed uint64) (MaximalGameResult, error) {
	if trials <= 0 || budget < 0 {
		return MaximalGameResult{}, fmt.Errorf("%w: trials=%d budget=%d", ErrBadGame, trials, budget)
	}
	root := rng.New(seed).Derive("maximal-game", strategy.Name())
	successes := 0
	totalQ := 0
	for trial := 0; trial < trials; trial++ {
		src := root.DeriveIndex("trial", trial)
		inst, err := NewMaximalInstance(n, src.Derive("instance"))
		if err != nil {
			return MaximalGameResult{}, err
		}
		// The two runs share the per-trial seed but are otherwise
		// independent invocations, mirroring LCA statelessness.
		sharedSeed := src.Derive("seed")
		answerI := strategy.Answer(inst, inst.HiddenI(), budget, sharedSeed.Derive("run"))
		answerJ := strategy.Answer(inst, inst.HiddenJ(), budget, sharedSeed.Derive("run"))
		if inst.ConsistentMaximal(answerI, answerJ) {
			successes++
		}
		totalQ += inst.Queries()
	}
	prop, err := stats.NewProportion(successes, trials)
	if err != nil {
		return MaximalGameResult{}, err
	}
	return MaximalGameResult{
		N:           n,
		Budget:      budget,
		Success:     prop,
		MeanQueries: float64(totalQ) / float64(trials),
	}, nil
}
