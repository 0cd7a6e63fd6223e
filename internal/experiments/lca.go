package experiments

import (
	"context"
	"errors"
	"fmt"

	"lcakp/internal/core"
	"lcakp/internal/engine"
	"lcakp/internal/knapsack"
	"lcakp/internal/oracle"
	"lcakp/internal/report"
	"lcakp/internal/repro"
	"lcakp/internal/rng"
	"lcakp/internal/stats"
	"lcakp/internal/workload"
)

// buildAccess generates a workload and returns its oracle access.
func buildAccess(name string, n int, seed uint64) (*workload.Generated, oracle.Access, error) {
	gen, err := workload.Generate(workload.Spec{Name: name, N: n, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	slice, err := oracle.NewSliceOracle(gen.Float)
	if err != nil {
		return nil, nil, err
	}
	return gen, slice, nil
}

// runE4 measures LCA-KP's per-query access cost (weighted samples +
// point queries) across n and ε, next to the paper's closed-form
// counts: flat in n, polynomial in 1/ε — the (1/ε)^{O(log* n)} regime
// at engineering scale.
func runE4(cfg Config) ([]*report.Table, error) {
	ns := []int{1_000, 10_000, 100_000, 1_000_000}
	runs := 5
	if cfg.Quick {
		ns = []int{1_000, 10_000}
		runs = 2
	}
	epsilons := []float64{0.1, 0.15, 0.2, 0.3}

	table := report.NewTable("E4: LCA-KP access cost per query",
		"workload", "n", "eps", "samples/query", "queries/query", "paper-m", "paper-rmedian-samples")
	table.Caption = "Lemma 4.10: measured cost depends on ε, not n; the last two columns evaluate the paper's formulas (Lemma 4.2 count and the ILPS22 rMedian sample complexity at τ=ε²/5, ρ=ε²/18)"

	ctx := context.Background()
	for _, name := range []string{"uniform", "zipf"} {
		for _, n := range ns {
			for _, eps := range epsilons {
				gen, access, err := buildAccess(name, n, cfg.Seed)
				if err != nil {
					return nil, fmt.Errorf("E4 %s n=%d: %w", name, n, err)
				}
				// The engine's per-query Metrics replace the old
				// counting-oracle deltas: same accesses, attributed to
				// the query that made them.
				lca, err := core.NewLCAKP(engine.Wrap(access), core.Params{Epsilon: eps, Seed: cfg.Seed})
				if err != nil {
					return nil, err
				}
				eng := engine.New(lca)
				var totalSamples, totalQueries int64
				for r := 0; r < runs; r++ {
					_, m, err := eng.Query(ctx, r%gen.Float.N())
					if err != nil {
						return nil, fmt.Errorf("E4 query: %w", err)
					}
					totalSamples += m.Samples
					totalQueries += m.PointQueries
				}
				samplesPerQuery := float64(totalSamples) / float64(runs)
				queriesPerQuery := float64(totalQueries) / float64(runs)

				paperM, err := core.PaperLargeSampleCount(eps*eps, 1)
				if err != nil {
					return nil, err
				}
				params := lca.Params()
				rmedian := repro.PaperRMedianSampleComplexity(params.DomainBits, eps*eps/5, eps*eps/18)
				if err := table.AddRowf(name, n, eps,
					samplesPerQuery, queriesPerQuery, paperM, rmedian); err != nil {
					return nil, err
				}
			}
		}
	}
	return []*report.Table{table}, nil
}

// consistencyVariant is one configuration of the E5 ablation: a
// quantile estimator plus the heavy-hitters flag for the large-item
// collector.
type consistencyVariant struct {
	name         string
	estimator    repro.Estimator
	heavyHitters bool
}

// consistencyVariants returns the E5 ablation set for ε: every quantile
// estimator with the plain collector, plus the best estimator paired
// with the reproducible heavy-hitters collector.
func consistencyVariants(eps float64) []consistencyVariant {
	tau := eps / 5
	return []consistencyVariant{
		{"naive", repro.Naive{}, false},
		{"snap", repro.Snap{Tau: tau}, false},
		{"trie", repro.Trie{Tau: tau}, false},
		{"iterated", repro.Iterated{Tau: tau}, false},
		{"padded-median", repro.PaddedMedian{Tau: tau}, false},
		{"trie+hh", repro.Trie{Tau: tau}, true},
	}
}

// runE5 measures cross-run consistency of the decision rule and of the
// per-item answers, for each quantile estimator: the paper's obstacle 2
// (naive sampling breaks consistency) and its resolution
// (reproducibility) side by side.
func runE5(cfg Config) ([]*report.Table, error) {
	pairs := 10
	seeds := 6
	n := 2000
	if cfg.Quick {
		pairs = 4
		seeds = 3
		n = 800
	}

	table := report.NewTable("E5: cross-run consistency by quantile estimator",
		"workload", "eps", "estimator", "rule-agree", "answer-agree", "runs")
	table.Caption = "Lemma 4.9: reproducible estimators keep independent runs on one rule; the naive empirical quantile does not. Reproducibility is a probability over the shared seed as well (Definition 2.5), so rates are averaged over several seeds."

	for _, name := range []string{"uniform", "zipf"} {
		for _, eps := range []float64{0.1, 0.2} {
			for _, variant := range consistencyVariants(eps) {
				var ruleRates, answerRates []float64
				for s := 0; s < seeds; s++ {
					gen, access, err := buildAccess(name, n, cfg.Seed)
					if err != nil {
						return nil, err
					}
					lca, err := core.NewLCAKP(access, core.Params{
						Epsilon:         eps,
						Seed:            cfg.Seed + 7 + uint64(1000*s),
						Estimator:       variant.estimator,
						UseHeavyHitters: variant.heavyHitters,
					})
					if err != nil {
						return nil, err
					}
					ruleAgree, answerAgree, err := measureRuleConsistency(lca, gen.Float, pairs, cfg.Seed+uint64(s))
					if err != nil {
						return nil, fmt.Errorf("E5 %s/%s: %w", name, variant.name, err)
					}
					ruleRates = append(ruleRates, ruleAgree)
					answerRates = append(answerRates, answerAgree)
				}
				if err := table.AddRowf(name, eps, variant.name,
					stats.Mean(ruleRates), stats.Mean(answerRates), seeds*pairs); err != nil {
					return nil, err
				}
			}
		}
	}
	return []*report.Table{table}, nil
}

// measureRuleConsistency runs `pairs` independent rule computations
// with adversarially distinct fresh randomness and reports (a) the
// fraction matching the first rule exactly and (b) the mean per-item
// answer agreement with the first rule.
func measureRuleConsistency(lca *core.LCAKP, in *knapsack.Instance, pairs int, seed uint64) (ruleAgree, answerAgree float64, err error) {
	ctx := context.Background()
	root := rng.New(seed).Derive("e5-fresh")
	base, err := lca.ComputeRule(ctx, root.DeriveIndex("run", 0))
	if err != nil {
		return 0, 0, err
	}
	agree := 0
	matches, total := 0, 0
	for p := 1; p <= pairs; p++ {
		rule, err := lca.ComputeRule(ctx, root.DeriveIndex("run", p))
		if err != nil {
			return 0, 0, err
		}
		if rule.Equal(base) {
			agree++
		}
		for i, it := range in.Items {
			if rule.Decide(i, it) == base.Decide(i, it) {
				matches++
			}
			total++
		}
	}
	return float64(agree) / float64(pairs), float64(matches) / float64(total), nil
}

// runE6 checks feasibility (Lemma 4.7) on every workload and compares
// the LCA's solution value against exact branch-and-bound, plain
// greedy, the classic 1/2-approximation, and the FPTAS (Lemma 4.8's
// additive bound, plus the empirical ratios the bound undersells).
func runE6(cfg Config) ([]*report.Table, error) {
	n := 500
	trials := 5
	if cfg.Quick {
		n = 250
		trials = 2
	}

	table := report.NewTable("E6: solution quality vs baselines",
		"workload", "eps", "feasible", "lca/opt", "greedy/opt", "half/opt", "fptas/opt", "bound(0.5-6eps/opt)")
	table.Caption = "Lemma 4.7 (always feasible) and Lemma 4.8 (p(C) ≥ OPT/2 - 6ε); ratios are means over independent seeds"

	for _, name := range workload.Names() {
		for _, eps := range []float64{0.05, 0.1, 0.15} {
			var lcaRatios, greedyRatios, halfRatios, fptasRatios, bounds []float64
			feasible := 0
			for trial := 0; trial < trials; trial++ {
				gen, err := workload.Generate(workload.Spec{
					Name: name, N: n, Seed: cfg.Seed + uint64(trial),
				})
				if err != nil {
					return nil, err
				}
				slice, err := oracle.NewSliceOracle(gen.Float)
				if err != nil {
					return nil, err
				}
				lca, err := core.NewLCAKP(slice, core.Params{Epsilon: eps, Seed: cfg.Seed})
				if err != nil {
					return nil, err
				}
				sol, _, err := lca.Solve(context.Background(), gen.Float)
				if err != nil {
					return nil, fmt.Errorf("E6 %s trial %d: %w", name, trial, err)
				}
				if sol.Feasible(gen.Float) {
					feasible++
				}
				optProfit, err := exactOpt(gen)
				if err != nil {
					return nil, fmt.Errorf("E6 %s opt: %w", name, err)
				}
				if optProfit <= 0 {
					continue
				}
				fptas, err := fptasAdaptive(gen.Float)
				if err != nil {
					return nil, fmt.Errorf("E6 %s fptas: %w", name, err)
				}
				lcaRatios = append(lcaRatios, sol.Profit(gen.Float)/optProfit)
				greedyRatios = append(greedyRatios, knapsack.Greedy(gen.Float).Profit/optProfit)
				halfRatios = append(halfRatios, knapsack.Half(gen.Float).Profit/optProfit)
				fptasRatios = append(fptasRatios, fptas.Profit/optProfit)
				bounds = append(bounds, (0.5*optProfit-6*eps)/optProfit)
			}
			if err := table.AddRowf(name, eps,
				fmt.Sprintf("%d/%d", feasible, trials),
				stats.Mean(lcaRatios), stats.Mean(greedyRatios),
				stats.Mean(halfRatios), stats.Mean(fptasRatios),
				stats.Mean(bounds)); err != nil {
				return nil, err
			}
		}
	}
	return []*report.Table{table}, nil
}

// runE7 validates Lemma 4.2's coupon-collector count on planted-large
// workloads: the probability that a batch of m weighted samples
// contains every planted item, as m sweeps through fractions and
// multiples of the formula value.
func runE7(cfg Config) ([]*report.Table, error) {
	trials := 400
	n := 5000
	if cfg.Quick {
		trials = 100
		n = 2000
	}

	table := report.NewTable("E7: coupon collector for heavy items",
		"planted", "delta", "paper-m", "m", "m/paper-m", "P[all collected]", "ci95-lo", "ci95-hi")
	table.Caption = "Lemma 4.2: at m = ⌈6δ⁻¹(ln δ⁻¹+1)⌉ all items of profit ≥ δ are collected w.p. ≥ 5/6"

	for _, planted := range []int{5, 10} {
		gen, err := workload.Generate(workload.Spec{
			Name: "planted-large", N: n, Seed: cfg.Seed, PlantedLarge: planted,
		})
		if err != nil {
			return nil, err
		}
		slice, err := oracle.NewSliceOracle(gen.Float)
		if err != nil {
			return nil, err
		}
		// delta = smallest planted profit in the normalized instance.
		delta := 1.0
		var heavy []int
		for i, it := range gen.Float.Items {
			if it.Profit > 0.02 { // planted items carry ~8% each
				heavy = append(heavy, i)
				if it.Profit < delta {
					delta = it.Profit
				}
			}
		}
		if len(heavy) != planted {
			return nil, fmt.Errorf("E7: found %d heavy items, planted %d", len(heavy), planted)
		}
		paperM, err := core.PaperLargeSampleCount(delta, 1)
		if err != nil {
			return nil, err
		}

		root := rng.New(cfg.Seed).Derive("e7")
		for _, frac := range []float64{0.25, 0.5, 1, 2} {
			m := int(float64(paperM) * frac)
			hits := 0
			for trial := 0; trial < trials; trial++ {
				src := root.DeriveIndex(fmt.Sprintf("m%d", m), trial)
				if collectedAll(slice, heavy, m, src) {
					hits++
				}
			}
			prop, err := stats.NewProportion(hits, trials)
			if err != nil {
				return nil, err
			}
			if err := table.AddRowf(planted, delta, paperM, m, frac,
				prop.Estimate, prop.Lo, prop.Hi); err != nil {
				return nil, err
			}
		}
	}
	return []*report.Table{table}, nil
}

// fptasAdaptive runs the FPTAS at the tightest epsilon whose DP table
// fits the solver's memory guard, starting at 0.1. The ladder reaches
// 0.8 because equal-profit instances (subset-sum, maximal-hard) are
// the FPTAS's worst case: with pmax = mean profit the table width is
// Θ(n²/ε).
func fptasAdaptive(in *knapsack.Instance) (knapsack.Result, error) {
	var lastErr error
	for _, eps := range []float64{0.1, 0.2, 0.4, 0.8} {
		res, err := knapsack.FPTAS(in, eps)
		if err == nil {
			return res, nil
		}
		if !errors.Is(err, knapsack.ErrTooLarge) {
			return knapsack.Result{}, err
		}
		lastErr = err
	}
	return knapsack.Result{}, lastErr
}

// exactOpt returns the exact optimum of the generated instance in
// normalized-profit units: dynamic programming on the integer form
// (weight-indexed, then profit-indexed), falling back to
// branch-and-bound on the float form for instances whose DP tables
// would be too large.
func exactOpt(gen *workload.Generated) (float64, error) {
	if res, err := knapsack.DPByWeight(gen.Int); err == nil {
		return res.Profit * gen.Scale, nil
	} else if !errors.Is(err, knapsack.ErrTooLarge) {
		return 0, err
	}
	if res, err := knapsack.DPByProfit(gen.Int); err == nil {
		return res.Profit * gen.Scale, nil
	} else if !errors.Is(err, knapsack.ErrTooLarge) {
		return 0, err
	}
	res, err := knapsack.BranchAndBound(gen.Float, 1<<24)
	if err != nil {
		return 0, err
	}
	return res.Profit, nil
}

// collectedAll draws m weighted samples in one frame and reports
// whether every index in want was drawn at least once.
func collectedAll(sampler oracle.Sampler, want []int, m int, src *rng.Source) bool {
	draws := make([]oracle.Draw, m)
	if _, err := sampler.SampleFrame(context.Background(), src, draws); err != nil {
		return false
	}
	seen := make(map[int]bool, len(want))
	for _, d := range draws {
		seen[d.Index] = true
	}
	for _, w := range want {
		if !seen[w] {
			return false
		}
	}
	return true
}
