package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"lcakp/internal/knapsack"
	"lcakp/internal/oracle"
	"lcakp/internal/rng"
)

// ruleKey renders every field of a rule, floats to the last bit, so
// two keys are equal exactly when the rules are.
func ruleKey(r Rule) string {
	return fmt.Sprintf("eps=%b large=%v esmall=%b singleton=%v thresholds=%b mass=%b",
		r.Epsilon, r.LargeIndices(), r.ESmall, r.Singleton, r.Thresholds, r.LargeMass)
}

// TestScratchReuseConcurrentRunsMatchSequential runs ComputeRule,
// QueryWithRandomness and Solve concurrently on one LCA per case, every
// case's LCA at once, a few calls per worker so the workers hand pooled
// scratch to each other across LCAs, and holds every result to the
// same call run one after another on a second LCA of the case, keyed
// as soon as it returned. The concurrent results are keyed only once
// every call has finished, so a rule that kept a run's buffer would
// show the later runs' bytes. The cases run at ε = 0.1 and 0.2, so the
// pool's sets pass between LCAs of different QuantileSamples, and
// cover the plain paper path, the tied-EPS path through the weight
// guard (which reads the scratch's efficiencies) and heavy-hitters
// collection.
func TestScratchReuseConcurrentRunsMatchSequential(t *testing.T) {
	ctx := context.Background()
	const workers, perWorker = 3, 4
	const calls = workers * perWorker
	fresh := func(kind string, i int) *rng.Source { return rng.New(99).DeriveIndex(kind, i) }
	type solved struct {
		rule    Rule
		indices []int
	}
	type lcaCase struct {
		workload string
		n        int
		params   Params

		in                                 *knapsack.Instance
		wantRules, wantAnswers, wantSolves []string
		lca                                *LCAKP
		rules                              []Rule
		answers                            []bool
		solves                             []solved
	}
	cases := []*lcaCase{
		{workload: "zipf", n: 3000, params: Params{Epsilon: 0.2, Seed: 7}},
		{workload: "zipf", n: 3000, params: Params{Epsilon: 0.1, Seed: 7}},
		{workload: "maximal-hard", n: 500, params: Params{Epsilon: 0.1, Seed: 11}},
		{workload: "planted-large", n: 1500, params: Params{Epsilon: 0.2, Seed: 9, UseHeavyHitters: true}},
	}
	item := func(c *lcaCase, i int) int { return i * 7919 % c.n }

	// One after another, each key taken as soon as its call returns.
	for _, c := range cases {
		c.in = mustGenerate(t, c.workload, c.n, 3).Float
		seq := newLCA(t, c.in, c.params)
		for i := range calls {
			rule, err := seq.ComputeRule(ctx, fresh("rule", i))
			if err != nil {
				t.Fatalf("%s ε=%v: ComputeRule: %v", c.workload, c.params.Epsilon, err)
			}
			c.wantRules = append(c.wantRules, ruleKey(rule))
			in, err := seq.QueryWithRandomness(ctx, item(c, i), fresh("query", i))
			if err != nil {
				t.Fatalf("%s ε=%v: QueryWithRandomness: %v", c.workload, c.params.Epsilon, err)
			}
			c.wantAnswers = append(c.wantAnswers, fmt.Sprint(in))
			sol, rule, err := seq.Solve(ctx, c.in)
			if err != nil {
				t.Fatalf("%s ε=%v: Solve: %v", c.workload, c.params.Epsilon, err)
			}
			c.wantSolves = append(c.wantSolves, ruleKey(rule)+fmt.Sprint(sol.Indices()))
		}
	}

	// Concurrently, every case's LCA at once, keyed after every call
	// has finished.
	errs := make(chan error, 3*calls*len(cases))
	var wg sync.WaitGroup
	for _, c := range cases {
		c.lca = newLCA(t, c.in, c.params)
		c.rules, c.answers, c.solves = make([]Rule, calls), make([]bool, calls), make([]solved, calls)
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
							c.rules[i], err = c.lca.ComputeRule(ctx, fresh("rule", i))
						case 1:
							c.answers[i], err = c.lca.QueryWithRandomness(ctx, item(c, i), fresh("query", i))
						case 2:
							sol, rule, serr := c.lca.Solve(ctx, c.in)
							if err = serr; err == nil {
								c.solves[i] = solved{rule, sol.Indices()}
							}
						}
						if err != nil {
							errs <- fmt.Errorf("%s ε=%v: %w", c.workload, c.params.Epsilon, err)
						}
					}
				}()
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent call: %v", err)
	}
	for _, c := range cases {
		for i := range calls {
			if got := ruleKey(c.rules[i]); got != c.wantRules[i] {
				t.Errorf("%s ε=%v: ComputeRule %d:\n got %s\nwant %s", c.workload, c.params.Epsilon, i, got, c.wantRules[i])
			}
			if got := fmt.Sprint(c.answers[i]); got != c.wantAnswers[i] {
				t.Errorf("%s ε=%v: QueryWithRandomness %d = %s, want %s", c.workload, c.params.Epsilon, i, got, c.wantAnswers[i])
			}
		}
		// Solve draws its randomness from the LCA's run nonce, which the
		// concurrent calls take in any order: compare the multisets.
		var gotSolves []string
		for _, s := range c.solves {
			gotSolves = append(gotSolves, ruleKey(s.rule)+fmt.Sprint(s.indices))
		}
		slices.Sort(gotSolves)
		slices.Sort(c.wantSolves)
		if !slices.Equal(gotSolves, c.wantSolves) {
			t.Errorf("%s ε=%v: concurrent Solve results differ from the sequential ones", c.workload, c.params.Epsilon)
		}
	}
}

// TestDiscardedLCAFreedByFirstGC holds a run to leaving nothing behind
// but its rule: once the last reference to an LCA is gone, the first
// GC frees it and its access, here a SliceOracle with its 16 B-per-item
// alias table. A pool of run sets inside the LCA fails it, since the
// runtime keeps a used pool reachable until the second GC after its
// use. The collector's pacer is off for the test, so the GC the test
// runs is the first one after the run.
func TestDiscardedLCAFreedByFirstGC(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	freed := make(chan struct{})
	runDiscardedLCA(t, freed)
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Fatal("the access of a discarded LCA outlived the first GC after its run")
	}
}

// runDiscardedLCA runs one ComputeRule on a new LCA over a zipf
// instance's SliceOracle, which closes freed once it is collected, and
// returns nothing that reaches either.
func runDiscardedLCA(t *testing.T, freed chan struct{}) {
	t.Helper()
	acc, err := oracle.NewSliceOracle(mustGenerate(t, "zipf", 20_000, 5).Float)
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	runtime.AddCleanup(acc, func(freed chan struct{}) { close(freed) }, freed)
	lca, err := NewLCAKP(acc, Params{Epsilon: 0.2, Seed: 7})
	if err != nil {
		t.Fatalf("NewLCAKP: %v", err)
	}
	if _, err := lca.ComputeRule(context.Background(), rng.New(1)); err != nil {
		t.Fatalf("ComputeRule: %v", err)
	}
}
