package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"lcakp/internal/knapsack"
	"lcakp/internal/obs"
	"lcakp/internal/oracle"
	"lcakp/internal/repro"
	"lcakp/internal/rng"
)

// LCAKP is the paper's LCA for Knapsack (Algorithm 2). It is safe for
// concurrent use. Every run draws fresh weighted samples while the
// seed r is shared and read-only, as in the model; an atomic nonce
// gives each run its own sampling randomness. Query and QueryBatch
// calls that overlap share one run (see Query), and nothing of a run
// survives its end.
type LCAKP struct {
	params Params
	access oracle.Access
	domain *repro.Domain

	// sharedRoot derives the internal randomness streams that must be
	// identical across runs and replicas (Definition 2.5's r).
	sharedRoot *rng.Source

	// freshBase seeds per-run sampling randomness; runNonce makes
	// successive runs use distinct streams. Consistency never relies
	// on these (that is the whole point of the construction), so any
	// values work; tests vary them adversarially.
	freshBase *rng.Source
	runNonce  atomic.Uint64

	// mu guards the shared run: running is set while a Query or
	// QueryBatch run is in flight, runID is its nonce and leader the
	// trace of the query leading it, and joined is what the queries
	// that joined it wait on — nil until the first one joins, so a run
	// that nobody joins allocates nothing for sharing.
	mu      sync.Mutex
	running bool
	runID   uint64
	leader  obs.TraceID
	joined  *sharedRun
}

// runScratch is the buffers of one run of ComputeRule or EstimateOPT:
// the draw frame both sampling stages share, the EPS sample's domain
// indices and the ECDF's sorted copy of them, and the small-item
// efficiencies the weight guard reads. A run takes one from
// scratchPool, grown to its own sizes (see takeScratch), and returns
// it once the rule is built. Every buffer is overwritten before it is
// read and no Rule keeps one, so nothing of a run reaches the next,
// whichever LCA ran it (Definition 2.2); the pool only spares the
// allocations.
type runScratch struct {
	draws   []oracle.Draw
	indices []int
	sorted  []int
	effs    []float64
}

// scratchPool holds the run sets of every LCA in the process. It is
// one package-level pool rather than one per LCA: the runtime keeps a
// pointer to a used pool until the second GC after its use, so a pool
// inside an LCA would keep a discarded LCA, and the access behind it
// (a SliceOracle's alias table), alive through the first GC after its
// last run. Sharing the sets also lets every new LCA, one per sealed
// epoch, reuse them.
var scratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// sharedRun hands the rule of one in-flight run to the queries that
// joined it.
type sharedRun struct {
	done chan struct{}
	rule Rule
	err  error
	// retry marks a run that ended because its leader's context did:
	// no rule came of it through any fault of the joiners, so each
	// joiner whose context is live starts over, and one of them leads
	// a new run.
	retry bool
}

// NewLCAKP builds an LCA over the given access with the given
// parameters. The instance behind access must have total profit
// normalized to 1 and every item weight at most the capacity
// (Definition 2.2); violations degrade the approximation guarantee but
// are not detectable through sublinear access, so they are the
// caller's contract.
func NewLCAKP(access oracle.Access, params Params) (*LCAKP, error) {
	norm, err := params.Normalize()
	if err != nil {
		return nil, err
	}
	domain, err := norm.Domain()
	if err != nil {
		return nil, err
	}
	root := rng.New(norm.Seed)
	return &LCAKP{
		params:     norm,
		access:     access,
		domain:     domain,
		sharedRoot: root.Derive("lcakp", "shared"),
		freshBase:  root.Derive("lcakp", "fresh"),
	}, nil
}

// drawChunk is how many draws a derivation asks its access for in one
// frame call: the instance server's frame size.
const drawChunk = 4096

// takeScratch takes a run set from scratchPool and grows it to the
// sizes a run of l fills: a frame of min(drawChunk, max(LargeSamples,
// QuantileSamples)) draws, and QuantileSamples capacity for the
// indices, the sorted copy and the efficiencies. The frame is sliced
// to exactly that length, so a set grown by an LCA of smaller ε splits
// the sampling into the same frames as a new one. The run gives the
// set back with scratchPool.Put.
func (l *LCAKP) takeScratch() *runScratch {
	s := scratchPool.Get().(*runScratch)
	q := l.params.QuantileSamples
	frame := min(drawChunk, max(l.params.LargeSamples, q))
	s.draws = slices.Grow(s.draws[:0], frame)[:frame]
	s.indices = slices.Grow(s.indices[:0], q)
	s.sorted = slices.Grow(s.sorted[:0], q)
	s.effs = slices.Grow(s.effs[:0], q)
	return s
}

// Params returns the normalized parameters in use.
func (l *LCAKP) Params() Params { return l.params }

// Query reports whether item i belongs to the solution C(I, seed) the
// LCA answers according to. It answers from one run of the pipeline,
// then probes item i alone. When no run is in flight, the call leads a
// new one at once: it draws fresh samples and recomputes the decision
// rule. When a Query or QueryBatch run is already in flight, the call
// joins it instead and waits for its rule; the rule does not depend on
// the queried item, so the overlapping calls answer exactly as a batch
// of their items would. No rule outlives its run, so no state survives
// between calls that do not overlap (Definition 2.2).
//
// The run's samples are charged to the accesses of the call leading
// it; a joining call makes only its point query, and its trace span
// records the run it joined (event core.shared_run). ctx cancels or
// deadline-bounds the call; an aborted call returns a wrapped
// ctx.Err() and leaves the LCA fully reusable. A run whose leader's
// context ends does not fail its joiners: one of them leads a new run.
func (l *LCAKP) Query(ctx context.Context, i int) (bool, error) {
	rule, err := l.sharedRule(ctx, "run")
	if err != nil {
		return false, err
	}
	return l.decide(ctx, rule, i)
}

// decide probes item i and applies rule to it.
func (l *LCAKP) decide(ctx context.Context, rule Rule, i int) (bool, error) {
	it, err := l.access.QueryItem(ctx, i)
	if err != nil {
		return false, fmt.Errorf("core: query item %d: %w", i, err)
	}
	return rule.Decide(i, it), nil
}

// sharedRule returns the rule of the Query or QueryBatch run in
// flight, or of a new run that this call leads, drawn with the fresh
// randomness of label and the run's nonce. A call that joins a run
// waits for its rule, or until its own context ends.
func (l *LCAKP) sharedRule(ctx context.Context, label string) (Rule, error) {
	for {
		l.mu.Lock()
		if !l.running {
			nonce := l.runNonce.Add(1)
			l.running, l.runID, l.leader = true, nonce, obs.TraceIDFromContext(ctx)
			l.mu.Unlock()
			return l.leadRun(ctx, l.freshBase.DeriveIndex(label, int(nonce)))
		}
		run := l.joined
		if run == nil {
			//lint:alloc made by a run's first joiner only; a run nobody joins allocates nothing for sharing
			run = &sharedRun{done: make(chan struct{})}
			l.joined = run
		}
		id, leader := l.runID, l.leader
		l.mu.Unlock()
		if span := obs.ActiveSpanFromContext(ctx); span != nil {
			//lint:alloc traced joiners only: the attrs are priced against the run they save
			span.Event("core.shared_run", obs.Int("run", int64(id)), obs.String("leader_trace", leader.String()))
		}
		select {
		case <-run.done:
		case <-ctx.Done():
			return Rule{}, fmt.Errorf("core: waiting for shared run %d: %w", id, ctx.Err())
		}
		if !run.retry {
			return run.rule, run.err
		}
	}
}

// leadRun computes the rule of the shared run this call leads under
// its own context, then ends the run and hands the result to the
// queries that joined it.
func (l *LCAKP) leadRun(ctx context.Context, fresh *rng.Source) (Rule, error) {
	rule, err := l.ComputeRule(ctx, fresh)
	l.mu.Lock()
	run := l.joined
	l.running, l.joined = false, nil
	l.mu.Unlock()
	if run != nil {
		run.rule, run.err = rule, err
		run.retry = err != nil && ctx.Err() != nil
		close(run.done)
	}
	return rule, err
}

// QueryBatch answers several membership queries from a single run of
// the pipeline: one rule computation, then one local decision per
// index. Within a batch this is sound by construction — every answer
// comes from the same run, so batch answers are mutually consistent
// with certainty, not just w.h.p. Across batches the usual stateless
// guarantees apply. The per-answer amortized access cost drops by a
// factor of len(indices). Like Query, it leads a new run or joins the
// one in flight, and the two share runs with each other.
func (l *LCAKP) QueryBatch(ctx context.Context, indices []int) ([]bool, error) {
	rule, err := l.sharedRule(ctx, "batch")
	if err != nil {
		return nil, err
	}
	answers := make([]bool, len(indices))
	for k, i := range indices {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: batch aborted at index %d: %w", k, err)
		}
		it, err := l.access.QueryItem(ctx, i)
		if err != nil {
			return nil, fmt.Errorf("core: query item %d: %w", i, err)
		}
		answers[k] = rule.Decide(i, it)
	}
	return answers, nil
}

// ComputeRule executes one full run of Algorithm 2 up to (and
// including) CONVERT-GREEDY and returns the local decision rule.
// fresh provides this run's sampling randomness; the reproducible
// internal randomness comes from the LCA's shared seed. Both sampling
// stages draw in frames of at most drawChunk draws and check
// cancellation and deadline expiry before each, so an aborted run
// stops within one frame call (at most drawChunk draws) of ctx firing.
// The run's buffers come from the package's pool and go back to it
// once the rule is built.
func (l *LCAKP) ComputeRule(ctx context.Context, fresh *rng.Source) (Rule, error) {
	eps := l.params.Epsilon
	s := l.takeScratch()
	defer scratchPool.Put(s)

	// Line 1-3: collect the large items. Sampling proportionally to
	// profit finds every item with profit > ε² w.h.p. (Lemma 4.2).
	large, largeMass, err := l.collectLarge(ctx, fresh.Derive("large"), s.draws)
	if err != nil {
		return Rule{}, err
	}

	// Lines 4-17: estimate the Equally Partitioning Sequence when the
	// small+garbage mass is non-negligible.
	var thresholds []float64
	var guard *weightGuard
	if 1-largeMass >= eps {
		var smallEffs []float64
		var totalDraws int
		thresholds, smallEffs, totalDraws, err = l.estimateEPS(ctx, fresh.Derive("eps"), largeMass, s)
		if err != nil {
			return Rule{}, err
		}
		guard = newWeightGuard(smallEffs, totalDraws, eps, l.access.Capacity(),
			l.sharedRoot.Derive("weight-guard"))
	}

	// Line 18: construct Ĩ from the collected large items and the EPS.
	tilde := l.buildTilde(large, thresholds)

	// Line 19: CONVERT-GREEDY extracts the decision rule.
	rule := convertGreedy(tilde, thresholds, eps, guard)
	rule.LargeMass = largeMass
	return rule, nil
}

// collectLarge draws the large-item sample R̄ and assembles the set M.
// In the default (paper) mode it keeps every sampled item with profit
// above ε², de-duplicated by original index (Lemma 4.2 guarantees
// completeness w.h.p.). With UseHeavyHitters it instead runs the
// reproducible heavy-hitters selector over the sample, whose output
// set is identical across runs w.h.p. It returns the collected items
// and their total (distinct) profit mass. draws is the frame buffer.
func (l *LCAKP) collectLarge(ctx context.Context, fresh *rng.Source, draws []oracle.Draw) (map[int]knapsack.Item, float64, error) {
	eps2 := l.params.Eps2()
	large := make(map[int]knapsack.Item)
	var seenItems map[int]knapsack.Item
	var ids []int
	if l.params.UseHeavyHitters {
		seenItems = make(map[int]knapsack.Item)
		ids = make([]int, 0, l.params.LargeSamples)
	}
	mass := 0.0
	for s := 0; s < l.params.LargeSamples; {
		if err := ctx.Err(); err != nil {
			return nil, 0, fmt.Errorf("core: large-item sampling aborted at sample %d: %w", s, err)
		}
		frame := draws[:min(len(draws), l.params.LargeSamples-s)]
		if n, err := l.access.SampleFrame(ctx, fresh, frame); err != nil {
			return nil, 0, fmt.Errorf("%w: large-item sample %d: %w", ErrSampling, s+n, err)
		}
		s += len(frame)
		for _, d := range frame {
			if l.params.UseHeavyHitters {
				ids = append(ids, d.Index)
				seenItems[d.Index] = d.Item
				continue
			}
			if _, seen := large[d.Index]; seen {
				continue
			}
			if d.Item.Profit > eps2 {
				large[d.Index] = d.Item
				mass += d.Item.Profit
			}
		}
	}
	if !l.params.UseHeavyHitters {
		return large, mass, nil
	}

	hh := repro.HeavyHitters{Threshold: eps2}
	hits, err := hh.Hits(ids, l.sharedRoot.Derive("heavy-hitters"))
	if err != nil {
		return nil, 0, fmt.Errorf("core: heavy hitters: %w", err)
	}
	for _, idx := range hits {
		it := seenItems[idx]
		large[idx] = it
		mass += it.Profit
	}
	return large, mass, nil
}

// estimateEPS draws the quantile sample Q̄, keeps the efficiencies of
// non-large items, and computes the EPS thresholds ẽ_1 ≥ … ≥ ẽ_t' with
// the configured reproducible quantile estimator, over one empirical
// CDF of the sample built for all of them. The estimator's
// internal randomness is derived from the shared seed per threshold
// index, so independent runs reconstruct identical random choices.
// It also returns the efficiencies of the sampled SMALL items plus the
// total draw count, the inputs of the degenerate-case weight guard.
// The sample, its sorted copy and the efficiencies live in s, the
// run's scratch, as does the frame buffer.
func (l *LCAKP) estimateEPS(ctx context.Context, fresh *rng.Source, largeMass float64, s *runScratch) ([]float64, []float64, int, error) {
	eps := l.params.Epsilon
	eps2 := l.params.Eps2()

	q := (eps + eps2/2) / (1 - largeMass)
	if q <= 0 || q >= 1 {
		// Small mass below ε + ε²/2: a single band (or none) suffices.
		return nil, nil, 0, nil
	}
	t := int(1 / q)
	if t == 0 {
		return nil, nil, 0, nil
	}

	// Draw the sample and keep the efficiencies of small+garbage items
	// as domain indices (for the quantile estimator) and of small items
	// as raw values (for the weight guard).
	sampleSrc := fresh.Derive("draw")
	indices, smallEffs := s.indices[:0], s.effs[:0]
	for n := 0; n < l.params.QuantileSamples; {
		if err := ctx.Err(); err != nil {
			return nil, nil, 0, fmt.Errorf("core: EPS sampling aborted at sample %d: %w", n, err)
		}
		frame := s.draws[:min(len(s.draws), l.params.QuantileSamples-n)]
		if k, err := l.access.SampleFrame(ctx, sampleSrc, frame); err != nil {
			return nil, nil, 0, fmt.Errorf("%w: EPS sample %d: %w", ErrSampling, n+k, err)
		}
		n += len(frame)
		for _, d := range frame {
			if d.Item.Profit > eps2 {
				continue
			}
			eff := d.Item.Efficiency()
			indices = append(indices, l.domain.Index(eff))
			if eff >= eps2 {
				smallEffs = append(smallEffs, eff)
			}
		}
	}
	s.indices, s.effs = indices, smallEffs
	if len(indices) == 0 {
		return nil, nil, 0, nil
	}

	// One empirical CDF serves every threshold's estimator call.
	cdf := repro.NewECDF(indices, s.sorted)
	thresholds := make([]float64, 0, t)
	for k := 1; k <= t; k++ {
		p := 1 - float64(float64(k)*q)
		if p < 0 {
			p = 0
		}
		shared := l.sharedRoot.DeriveIndex("eps-threshold", k)
		freshK := fresh.DeriveIndex("estimator", k)
		idx, err := l.params.Estimator.Quantile(cdf, l.domain.Size(), p, shared, freshK)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("core: EPS quantile %d: %w", k, err)
		}
		v := l.domain.Value(idx)
		// Enforce the non-increasing invariant against estimator
		// wobble; the clamp is deterministic, so it preserves
		// cross-run consistency.
		if n := len(thresholds); n > 0 && v > thresholds[n-1] {
			v = thresholds[n-1]
		}
		thresholds = append(thresholds, v)
	}

	// Lines 11-14: if the last threshold fell below ε² it lies inside
	// garbage territory; drop it (t' = t-1).
	if n := len(thresholds); n > 0 && thresholds[n-1] < eps2 {
		thresholds = thresholds[:n-1]
	}
	return thresholds, smallEffs, l.params.QuantileSamples, nil
}

// buildTilde constructs the proxy instance Ĩ (step 3 of the
// Ĩ-construction algorithm): all collected large items verbatim, plus
// ⌊1/ε⌋ copies of the representative (ε², ε²/ẽ_{k+1}) per EPS band.
func (l *LCAKP) buildTilde(large map[int]knapsack.Item, thresholds []float64) *tildeInstance {
	eps := l.params.Epsilon
	eps2 := l.params.Eps2()
	copies := int(1 / eps)

	tilde := &tildeInstance{capacity: l.access.Capacity()}
	// Every item of Ĩ is known up front: the large items plus `copies`
	// band representatives per threshold.
	tilde.items = make([]tildeItem, 0, len(large)+len(thresholds)*copies)
	// Large items enter Ĩ in sorted original-index order. The later
	// sortByEfficiency re-establishes a total order anyway, but
	// building from a map range would make every intermediate state
	// depend on runtime-random iteration order — the exact leak the
	// mapiter analyzer forbids on the solver path.
	indices := make([]int, 0, len(large))
	for idx := range large {
		indices = append(indices, idx)
	}
	sort.Ints(indices)
	for _, idx := range indices {
		it := large[idx]
		tilde.items = append(tilde.items, tildeItem{
			item: it,
			eff:  it.Efficiency(),
			tag:  tildeTag{origIndex: idx, band: -1},
		})
	}
	for band, e := range thresholds {
		if e <= 0 {
			continue
		}
		rep := knapsack.Item{Profit: eps2, Weight: eps2 / e}
		for c := 0; c < copies; c++ {
			tilde.items = append(tilde.items, tildeItem{
				item: rep,
				eff:  e,
				tag:  tildeTag{origIndex: -1, band: band},
			})
		}
	}
	return tilde
}

// Solve materializes the full solution C(I, seed) by computing one
// rule and applying it to every item of the instance (MAPPING-GREEDY).
// It requires the in-memory instance and exists for validation,
// experiments, and baselines — not for LCA use.
func (l *LCAKP) Solve(ctx context.Context, in *knapsack.Instance) (*knapsack.Solution, Rule, error) {
	fresh := l.freshBase.DeriveIndex("solve", int(l.runNonce.Add(1)))
	rule, err := l.ComputeRule(ctx, fresh)
	if err != nil {
		return nil, Rule{}, err
	}
	return rule.MappingGreedy(in), rule, nil
}
