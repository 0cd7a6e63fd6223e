// Benchmarks regenerating the reproduction's experiment measurements,
// one benchmark per experiment table/figure (DESIGN.md §4). Each
// benchmark times the experiment's unit of work and reports the
// experiment's headline metric via b.ReportMetric, so `go test
// -bench=. -benchmem` yields the same quantities that cmd/lcabench
// tabulates. The full tables live in EXPERIMENTS.md and are printed by
// `go run ./cmd/lcabench`.
package lcakp_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"lcakp"
	"lcakp/internal/avgcase"
	"lcakp/internal/core"
	"lcakp/internal/experiments"
	"lcakp/internal/lowerbound"
	"lcakp/internal/oracle"
	"lcakp/internal/repro"
	"lcakp/internal/rng"
	"lcakp/internal/sim"
	"lcakp/internal/workload"
)

// benchAccess builds a counting oracle over a workload, failing the
// benchmark on error.
func benchAccess(b *testing.B, name string, n int) (*workload.Generated, *lcakp.Counting) {
	b.Helper()
	gen, err := workload.Generate(workload.Spec{Name: name, N: n, Seed: 42})
	if err != nil {
		b.Fatalf("Generate: %v", err)
	}
	slice, err := oracle.NewSliceOracle(gen.Float)
	if err != nil {
		b.Fatalf("NewSliceOracle: %v", err)
	}
	return gen, lcakp.NewCounting(slice)
}

// BenchmarkE1ORReductionOptimal times one OR-reduction game
// (Theorem 3.2 / Figure 1) for the point-query strategy at budget n/4
// and reports the measured success rate.
func BenchmarkE1ORReductionOptimal(b *testing.B) {
	const n = 4096
	strategy := lowerbound.RandomProbe{}
	root := rng.New(1)
	correct := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := root.DeriveIndex("trial", i)
		planted := -1
		if src.Float64() < 0.5 {
			planted = src.Intn(n - 1)
		}
		inst, err := lowerbound.NewORInstance(n, planted, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		if strategy.Answer(inst, n/4, src.Derive("s")) == inst.LastInSolution() {
			correct++
		}
	}
	b.ReportMetric(float64(correct)/float64(b.N), "success-rate")
}

// BenchmarkE2ORReductionApprox times the α-approximate variant
// (Theorem 3.3) at α = 0.5.
func BenchmarkE2ORReductionApprox(b *testing.B) {
	const n = 4096
	strategy := lowerbound.RandomProbe{}
	root := rng.New(2)
	correct := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := root.DeriveIndex("trial", i)
		planted := -1
		if src.Float64() < 0.5 {
			planted = src.Intn(n - 1)
		}
		inst, err := lowerbound.NewORInstance(n, planted, 0.25)
		if err != nil {
			b.Fatal(err)
		}
		if strategy.Answer(inst, n/4, src.Derive("s")) == inst.LastInSolution() {
			correct++
		}
	}
	b.ReportMetric(float64(correct)/float64(b.N), "success-rate")
}

// BenchmarkE3MaximalFeasible times one maximal-feasibility game
// (Theorem 3.4): two stateless runs over the hidden-pair distribution
// at budget n/8.
func BenchmarkE3MaximalFeasible(b *testing.B) {
	const n = 4096
	strategy := lowerbound.ProbeAndRank{}
	root := rng.New(3)
	consistent := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := root.DeriveIndex("trial", i)
		inst, err := lowerbound.NewMaximalInstance(n, src.Derive("instance"))
		if err != nil {
			b.Fatal(err)
		}
		shared := src.Derive("seed")
		ai := strategy.Answer(inst, inst.HiddenI(), n/8, shared.Derive("run"))
		aj := strategy.Answer(inst, inst.HiddenJ(), n/8, shared.Derive("run"))
		if inst.ConsistentMaximal(ai, aj) {
			consistent++
		}
	}
	b.ReportMetric(float64(consistent)/float64(b.N), "success-rate")
}

// BenchmarkE4QueryComplexity times one full LCA query (Theorem 4.1 /
// Lemma 4.10): the whole Algorithm 2 pipeline from fresh samples, at
// n = 100k and ε = 0.15, reporting the per-query access count.
func BenchmarkE4QueryComplexity(b *testing.B) {
	gen, counting := benchAccess(b, "zipf", 100_000)
	lca, err := core.NewLCAKP(counting, core.Params{Epsilon: 0.15, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	counting.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lca.Query(context.Background(), i%gen.Float.N()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(counting.Total())/float64(b.N), "accesses/query")
}

// BenchmarkE5Consistency times one pair of independent rule
// computations (Lemma 4.9) and reports the rule agreement rate.
func BenchmarkE5Consistency(b *testing.B) {
	gen, counting := benchAccess(b, "uniform", 2_000)
	lca, err := core.NewLCAKP(counting, core.Params{Epsilon: 0.2, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	_ = gen
	root := rng.New(9)
	agree := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r1, err := lca.ComputeRule(context.Background(), root.DeriveIndex("a", i))
		if err != nil {
			b.Fatal(err)
		}
		r2, err := lca.ComputeRule(context.Background(), root.DeriveIndex("b", i))
		if err != nil {
			b.Fatal(err)
		}
		if r1.Equal(r2) {
			agree++
		}
	}
	b.ReportMetric(float64(agree)/float64(b.N), "rule-agreement")
}

// BenchmarkE6Approximation times one LCA solve plus feasibility check
// (Lemmas 4.7–4.8) and reports the solution/greedy profit ratio.
func BenchmarkE6Approximation(b *testing.B) {
	gen, counting := benchAccess(b, "zipf", 500)
	lca, err := core.NewLCAKP(counting, core.Params{Epsilon: 0.1, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	greedy := lcakp.Greedy(gen.Float)
	ratioSum := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, _, err := lca.Solve(context.Background(), gen.Float)
		if err != nil {
			b.Fatal(err)
		}
		if !sol.Feasible(gen.Float) {
			b.Fatal("infeasible solution")
		}
		ratioSum += sol.Profit(gen.Float) / greedy.Profit
	}
	b.ReportMetric(ratioSum/float64(b.N), "lca/greedy-profit")
}

// BenchmarkE7CouponCollector times one Lemma 4.2 collection round (m
// weighted samples at the paper's formula value) and reports the
// all-collected rate.
func BenchmarkE7CouponCollector(b *testing.B) {
	gen, counting := benchAccess(b, "planted-large", 5_000)
	var heavy []int
	delta := 1.0
	for i, it := range gen.Float.Items {
		if it.Profit > 0.02 {
			heavy = append(heavy, i)
			if it.Profit < delta {
				delta = it.Profit
			}
		}
	}
	m, err := core.PaperLargeSampleCount(delta, 1)
	if err != nil {
		b.Fatal(err)
	}
	root := rng.New(4)
	hits := 0
	draws := make([]lcakp.Draw, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := root.DeriveIndex("trial", i)
		if _, err := counting.SampleFrame(context.Background(), src, draws); err != nil {
			b.Fatal(err)
		}
		seen := make(map[int]bool, len(heavy))
		for _, d := range draws {
			seen[d.Index] = true
		}
		all := true
		for _, h := range heavy {
			if !seen[h] {
				all = false
				break
			}
		}
		if all {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "all-collected-rate")
}

// BenchmarkE8RQuantile times one reproducible-quantile pair
// (Theorem 4.5): two fresh-sample runs of the trie estimator with
// shared randomness, reporting the agreement rate.
func BenchmarkE8RQuantile(b *testing.B) {
	const (
		size    = 1 << 12
		samples = 10_000
	)
	est := repro.Trie{Tau: 0.05}
	gen := func(src *rng.Source) []int {
		out := make([]int, samples)
		for i := range out {
			out[i] = src.Intn(size)
		}
		return out
	}
	root := rng.New(5)
	agree := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shared1 := root.DeriveIndex("shared", i)
		shared2 := root.DeriveIndex("shared", i)
		a, err := est.Quantile(repro.NewECDF(gen(root.DeriveIndex("sa", i)), nil), size, 0.7, shared1, nil)
		if err != nil {
			b.Fatal(err)
		}
		c, err := est.Quantile(repro.NewECDF(gen(root.DeriveIndex("sb", i)), nil), size, 0.7, shared2, nil)
		if err != nil {
			b.Fatal(err)
		}
		if a == c {
			agree++
		}
	}
	b.ReportMetric(float64(agree)/float64(b.N), "reproducibility")
}

// BenchmarkE9Distributed times one remote membership query against a
// two-replica TCP fleet (Definitions 2.3–2.4).
func BenchmarkE9Distributed(b *testing.B) {
	gen, counting := benchAccess(b, "zipf", 1_000)
	fleet, err := lcakp.NewFleet(counting, 2, core.Params{Epsilon: 0.25, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	defer fleet.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		client := fleet.Clients[i%len(fleet.Clients)]
		if _, err := client.InSolution(context.Background(), i%gen.Float.N()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteQuick runs every experiment end to end in quick mode —
// the one-button regeneration of all tables (expect seconds per
// iteration; run with -benchtime=1x).
func BenchmarkSuiteQuick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, e := range experiments.All() {
			if _, err := e.Run(experiments.Config{Quick: true, Seed: 1}); err != nil {
				b.Fatalf("%s: %v", e.ID, err)
			}
		}
	}
}

// BenchmarkEstimatorAblation times one quantile call per estimator —
// the consistency-mechanism ablation of DESIGN.md §5.
func BenchmarkEstimatorAblation(b *testing.B) {
	const size = 1 << 12
	src := rng.New(3)
	samples := make([]int, 20_000)
	for i := range samples {
		samples[i] = src.Intn(size)
	}
	for _, est := range []repro.Estimator{
		repro.Naive{},
		repro.Snap{Tau: 0.05},
		repro.Trie{Tau: 0.05},
		repro.Iterated{Tau: 0.05},
		repro.PaddedMedian{Tau: 0.05},
	} {
		b.Run(est.Name(), func(b *testing.B) {
			root := rng.New(4)
			for i := 0; i < b.N; i++ {
				shared := root.DeriveIndex("s", i)
				fresh := root.DeriveIndex("f", i)
				if _, err := est.Quantile(repro.NewECDF(samples, nil), size, 0.6, shared, fresh); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLargeSampleAmplification measures the large-item collection
// step at 1x vs amplified sample counts (DESIGN.md §5 ablation).
func BenchmarkLargeSampleAmplification(b *testing.B) {
	gen, counting := benchAccess(b, "planted-large", 5_000)
	_ = gen
	base, err := core.PaperLargeSampleCount(0.04, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, mult := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("x%d", mult), func(b *testing.B) {
			src := rng.New(6)
			draws := make([]lcakp.Draw, base*mult)
			for i := 0; i < b.N; i++ {
				if _, err := counting.SampleFrame(context.Background(), src, draws); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE10ValueEstimate times one run of the IKY12
// value-approximation pipeline (Lemma 4.4) and reports the additive
// error against the exact optimum in units of ε.
func BenchmarkE10ValueEstimate(b *testing.B) {
	const eps = 0.15
	gen, counting := benchAccess(b, "uniform", 500)
	lca, err := core.NewLCAKP(counting, core.Params{Epsilon: eps, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	opt, err := lcakp.DPByWeight(gen.Int)
	if err != nil {
		b.Fatal(err)
	}
	trueOPT := opt.Profit * gen.Scale
	root := rng.New(10)
	errSum := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, err := lca.EstimateOPT(context.Background(), root.DeriveIndex("run", i))
		if err != nil {
			b.Fatal(err)
		}
		diff := est.Estimate - trueOPT
		if diff < 0 {
			diff = -diff
		}
		errSum += diff / eps
	}
	b.ReportMetric(errSum/float64(b.N), "abs-err/eps")
}

// BenchmarkE11AvgCase times one full-instance decision pass of the
// average-case threshold LCA (Section 5 extension) and reports the
// feasibility rate.
func BenchmarkE11AvgCase(b *testing.B) {
	threshold, err := avgcase.NewThresholdLCA(avgcase.UniformModel{}, avgcase.Calibration{
		CapacityFraction: 0.3,
		Seed:             7,
	})
	if err != nil {
		b.Fatal(err)
	}
	feasible := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		gen, err := workload.Generate(workload.Spec{
			Name: "uniform", N: 2_000, Seed: uint64(i), CapacityFraction: 0.3,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		sol := threshold.Solve(gen.Float)
		if sol.Feasible(gen.Float) {
			feasible++
		}
	}
	b.ReportMetric(float64(feasible)/float64(b.N), "feasible-rate")
}

// BenchmarkE12Chaos times one failure-injection simulation run
// (statelessness extension) and reports the surviving availability.
func BenchmarkE12Chaos(b *testing.B) {
	_, counting := benchAccess(b, "zipf", 500)
	availSum := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := sim.New(counting, sim.Config{
			Replicas:    3,
			Params:      core.Params{Epsilon: 0.25, Seed: 7},
			Queries:     100,
			MTBF:        50 * time.Millisecond,
			RepairTime:  30 * time.Millisecond,
			ServiceTime: 8 * time.Millisecond,
			Seed:        uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		availSum += res.Availability
	}
	b.ReportMetric(availSum/float64(b.N), "availability")
}
