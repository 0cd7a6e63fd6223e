package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"lcakp/internal/rng"
)

// ruleKey renders every field of a rule, floats to the last bit, so
// two keys are equal exactly when the rules are.
func ruleKey(r Rule) string {
	return fmt.Sprintf("eps=%b large=%v esmall=%b singleton=%v thresholds=%b mass=%b",
		r.Epsilon, r.LargeIndices(), r.ESmall, r.Singleton, r.Thresholds, r.LargeMass)
}

// TestScratchReuseConcurrentRunsMatchSequential runs ComputeRule,
// QueryWithRandomness and Solve concurrently on one LCA, a few calls
// per worker so the workers hand pooled scratch to each other, and
// holds every result to the same call run one after another on a
// second LCA, keyed as soon as it returned. The concurrent results are
// keyed only once every call has finished, so a rule that kept a run's
// buffer would show the later runs' bytes. The workloads cover the
// plain paper path, the tied-EPS path through the weight guard (which
// reads the scratch's efficiencies) and heavy-hitters collection.
func TestScratchReuseConcurrentRunsMatchSequential(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		workload string
		n        int
		params   Params
	}{
		{"zipf", 3000, Params{Epsilon: 0.2, Seed: 7}},
		{"maximal-hard", 500, Params{Epsilon: 0.1, Seed: 11}},
		{"planted-large", 1500, Params{Epsilon: 0.2, Seed: 9, UseHeavyHitters: true}},
	} {
		gen := mustGenerate(t, tc.workload, tc.n, 3)
		const workers, perWorker = 3, 4
		calls := workers * perWorker
		fresh := func(kind string, i int) *rng.Source { return rng.New(99).DeriveIndex(kind, i) }
		item := func(i int) int { return i * 7919 % tc.n }

		// One after another, each key taken as soon as its call returns.
		seq := newLCA(t, gen.Float, tc.params)
		var wantRules, wantAnswers, wantSolves []string
		for i := range calls {
			rule, err := seq.ComputeRule(ctx, fresh("rule", i))
			if err != nil {
				t.Fatalf("%s: ComputeRule: %v", tc.workload, err)
			}
			wantRules = append(wantRules, ruleKey(rule))
			in, err := seq.QueryWithRandomness(ctx, item(i), fresh("query", i))
			if err != nil {
				t.Fatalf("%s: QueryWithRandomness: %v", tc.workload, err)
			}
			wantAnswers = append(wantAnswers, fmt.Sprint(in))
			sol, rule, err := seq.Solve(ctx, gen.Float)
			if err != nil {
				t.Fatalf("%s: Solve: %v", tc.workload, err)
			}
			wantSolves = append(wantSolves, ruleKey(rule)+fmt.Sprint(sol.Indices()))
		}

		// Concurrently on one LCA, keyed after every call has finished.
		lca := newLCA(t, gen.Float, tc.params)
		rules, answers := make([]Rule, calls), make([]bool, calls)
		type solved struct {
			rule    Rule
			indices []int
		}
		solves := make([]solved, calls)
		errs := make(chan error, 3*calls)
		var wg sync.WaitGroup
		for w := range workers {
			for kind := range 3 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := range perWorker {
						i := w*perWorker + k
						var err error
						switch kind {
						case 0:
							rules[i], err = lca.ComputeRule(ctx, fresh("rule", i))
						case 1:
							answers[i], err = lca.QueryWithRandomness(ctx, item(i), fresh("query", i))
						case 2:
							sol, rule, serr := lca.Solve(ctx, gen.Float)
							if err = serr; err == nil {
								solves[i] = solved{rule, sol.Indices()}
							}
						}
						if err != nil {
							errs <- err
						}
					}
				}()
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("%s: concurrent call: %v", tc.workload, err)
		}
		for i := range calls {
			if got := ruleKey(rules[i]); got != wantRules[i] {
				t.Errorf("%s: ComputeRule %d:\n got %s\nwant %s", tc.workload, i, got, wantRules[i])
			}
			if got := fmt.Sprint(answers[i]); got != wantAnswers[i] {
				t.Errorf("%s: QueryWithRandomness %d = %s, want %s", tc.workload, i, got, wantAnswers[i])
			}
		}
		// Solve draws its randomness from the LCA's run nonce, which the
		// concurrent calls take in any order: compare the multisets.
		var gotSolves []string
		for _, s := range solves {
			gotSolves = append(gotSolves, ruleKey(s.rule)+fmt.Sprint(s.indices))
		}
		slices.Sort(gotSolves)
		slices.Sort(wantSolves)
		if !slices.Equal(gotSolves, wantSolves) {
			t.Errorf("%s: concurrent Solve results differ from the sequential ones", tc.workload)
		}
	}
}
