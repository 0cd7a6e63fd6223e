package core

import (
	"context"
	"testing"

	"lcakp/internal/knapsack"
	"lcakp/internal/oracle"
	"lcakp/internal/rng"
	"lcakp/internal/workload"
)

// mustGenerate builds a workload instance or fails the test.
func mustGenerate(t *testing.T, name string, n int, seed uint64) *workload.Generated {
	t.Helper()
	gen, err := workload.Generate(workload.Spec{Name: name, N: n, Seed: seed})
	if err != nil {
		t.Fatalf("Generate(%s, n=%d): %v", name, n, err)
	}
	return gen
}

// newLCA wraps an instance in a slice oracle and builds an LCA.
func newLCA(t *testing.T, in *knapsack.Instance, params Params) *LCAKP {
	t.Helper()
	acc, err := oracle.NewSliceOracle(in)
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	lca, err := NewLCAKP(acc, params)
	if err != nil {
		t.Fatalf("NewLCAKP: %v", err)
	}
	return lca
}

func TestLCAKPSolutionFeasible(t *testing.T) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			gen := mustGenerate(t, name, 500, 42)
			lca := newLCA(t, gen.Float, Params{Epsilon: 0.2, Seed: 7})
			sol, rule, err := lca.Solve(context.Background(), gen.Float)
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if !sol.Feasible(gen.Float) {
				t.Errorf("infeasible solution: weight %v > capacity %v (rule %+v)",
					sol.Weight(gen.Float), gen.Float.Capacity, rule)
			}
		})
	}
}

func TestLCAKPApproximation(t *testing.T) {
	const eps = 0.15
	for _, name := range []string{"uniform", "zipf", "correlated"} {
		t.Run(name, func(t *testing.T) {
			gen := mustGenerate(t, name, 400, 3)
			lca := newLCA(t, gen.Float, Params{Epsilon: eps, Seed: 11})
			sol, rule, err := lca.Solve(context.Background(), gen.Float)
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			opt, err := knapsack.BranchAndBound(gen.Float, 1<<22)
			if err != nil {
				t.Fatalf("BranchAndBound: %v", err)
			}
			got := sol.Profit(gen.Float)
			want := 0.5*opt.Profit - 6*eps
			if got < want {
				t.Errorf("profit %v < 0.5*OPT - 6eps = %v (OPT=%v, rule %+v)",
					got, want, opt.Profit, rule)
			}
		})
	}
}

func TestLCAKPConsistencyAcrossRuns(t *testing.T) {
	gen := mustGenerate(t, "uniform", 1000, 99)
	lca := newLCA(t, gen.Float, Params{Epsilon: 0.2, Seed: 5})

	base, err := lca.ComputeRule(context.Background(), rng.New(1).Derive("fresh-a"))
	if err != nil {
		t.Fatalf("ComputeRule: %v", err)
	}
	agree := 0
	const runs = 20
	for r := 0; r < runs; r++ {
		rule, err := lca.ComputeRule(context.Background(), rng.New(uint64(1000+r)).Derive("fresh-b"))
		if err != nil {
			t.Fatalf("ComputeRule run %d: %v", r, err)
		}
		if rule.Equal(base) {
			agree++
		}
	}
	// Lemma 4.9 promises consistency w.p. 1-eps; leave generous slack
	// for the engineering-scale sample sizes.
	if agree < runs*6/10 {
		t.Errorf("only %d/%d runs agreed with the base rule", agree, runs)
	}
}

// QueryWithRandomness is Query with caller-controlled fresh sampling
// randomness, used by tests to drive many runs with explicitly
// distinct (or deliberately re-used) randomness. Each call is its own
// run: it neither joins nor is joined.
func (l *LCAKP) QueryWithRandomness(ctx context.Context, i int, fresh *rng.Source) (bool, error) {
	rule, err := l.ComputeRule(ctx, fresh)
	if err != nil {
		return false, err
	}
	return l.decide(ctx, rule, i)
}
