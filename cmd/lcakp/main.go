// Command lcakp runs the LCA for Knapsack on a generated workload
// instance and reports the answered solution next to the classical
// baselines.
//
// Usage:
//
//	lcakp -workload zipf -n 10000 -eps 0.1 -queries 20
//	lcakp -workload uniform -n 1000 -eps 0.05 -solve
//
// With -solve the full solution is materialized via MAPPING-GREEDY and
// scored against exact DP / greedy / the 1/2-approximation; otherwise
// only the requested number of point queries is answered, LCA-style.
//
// With -materialize the complete solution is evaluated under the
// canonical materialization randomness and written to the given
// artifact directory as a checksummed, content-addressed file (see
// internal/store). Two runs with the same workload, seed, and epsilon
// emit bit-identical artifacts — on any machine:
//
//	lcakp -workload zipf -n 100000 -eps 0.1 -seed 7 \
//	    -instance-hash 3 -materialize /var/lib/lcakp/artifacts
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"lcakp/internal/core"
	"lcakp/internal/engine"
	"lcakp/internal/knapsack"
	"lcakp/internal/oracle"
	"lcakp/internal/rng"
	"lcakp/internal/store"
	"lcakp/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("lcakp", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		workloadName = flags.String("workload", "uniform", fmt.Sprintf("workload family %v", workload.Names()))
		n            = flags.Int("n", 10000, "number of items")
		eps          = flags.Float64("eps", 0.1, "approximation parameter epsilon")
		seed         = flags.Uint64("seed", 1, "shared LCA seed (replicas with equal seeds agree)")
		wseed        = flags.Uint64("instance-seed", 42, "workload generation seed")
		queries      = flags.Int("queries", 10, "number of LCA membership queries to answer")
		solve        = flags.Bool("solve", false, "materialize the full solution and compare to baselines")
		matDir       = flags.String("materialize", "", "write the complete solution as a checksummed artifact into this directory and exit")
		instanceHash = flags.Uint64("instance-hash", 0, "instance identity the artifact is addressed by (with -materialize)")
	)
	if err := flags.Parse(args); err != nil {
		return 2
	}

	gen, err := workload.Generate(workload.Spec{Name: *workloadName, N: *n, Seed: *wseed})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	access, err := oracle.NewSliceOracle(gen.Float)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	counting := engine.NewCounting(access)
	lca, err := core.NewLCAKP(counting, core.Params{Epsilon: *eps, Seed: *seed})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	params := lca.Params()
	fmt.Fprintf(stdout, "instance: %s, n=%d, capacity=%.4f (normalized), eps=%.3f\n",
		*workloadName, gen.Float.N(), gen.Float.Capacity, *eps)
	fmt.Fprintf(stdout, "params:   large-samples=%d quantile-samples=%d domain=2^%d cells\n",
		params.LargeSamples, params.QuantileSamples, params.DomainBits)

	if *matDir != "" {
		return runMaterialize(stdout, stderr, lca, access, *matDir, *instanceHash, *seed)
	}
	if *solve {
		return runSolve(stdout, stderr, lca, gen)
	}

	src := rng.New(*wseed).Derive("cli-queries")
	fmt.Fprintf(stdout, "\n%-8s  %-28s  %s\n", "item", "(profit, weight)", "in solution?")
	ctx := context.Background()
	for q := 0; q < *queries; q++ {
		i := src.Intn(gen.Float.N())
		in, err := lca.Query(ctx, i)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		it := gen.Float.Items[i]
		fmt.Fprintf(stdout, "%-8d  (%.6f, %.6f)        %v\n", i, it.Profit, it.Weight, in)
	}
	fmt.Fprintf(stdout, "\naccess cost: %d weighted samples, %d point queries over %d LCA queries\n",
		counting.Samples(), counting.Queries(), *queries)
	return 0
}

// runMaterialize derives the canonical rule, evaluates it over every
// item, and persists the artifact — the offline preprocessing step a
// store-backed gateway serves from.
func runMaterialize(stdout, stderr io.Writer, lca *core.LCAKP, access oracle.Access, dir string, instanceHash, seed uint64) int {
	ctx := context.Background()
	rule, err := store.MaterializeRule(ctx, lca)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// A static instance is its tenant's epoch 0.
	a, err := store.MaterializeEpoch(ctx, access, rule, instanceHash, seed, 0)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	st, err := store.New(dir, 0)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer st.Close()
	if err := st.Put(ctx, a); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "\nmaterialized i%d-s%d: %d items, %d bytes, checksum %016x\n",
		instanceHash, seed, a.N, a.Size(), a.Checksum())
	fmt.Fprintf(stdout, "artifact: %s\n", st.PathVersioned(engine.VersionedTenant{Tenant: engine.TenantID{Instance: instanceHash, Seed: seed}}))
	return 0
}

// runSolve materializes the full solution and prints the baseline
// comparison.
func runSolve(stdout, stderr io.Writer, lca *core.LCAKP, gen *workload.Generated) int {
	sol, rule, err := lca.Solve(context.Background(), gen.Float)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	profit := sol.Profit(gen.Float)
	weight := sol.Weight(gen.Float)
	fmt.Fprintf(stdout, "\nLCA solution: %d items, profit=%.4f, weight=%.4f/%.4f, feasible=%v\n",
		sol.Len(), profit, weight, gen.Float.Capacity, sol.Feasible(gen.Float))
	fmt.Fprintf(stdout, "rule: %d large items in, e_small=%.4g, singleton=%v, %d EPS thresholds\n",
		len(rule.LargeIn), rule.ESmall, rule.Singleton, len(rule.Thresholds))

	greedy := knapsack.Greedy(gen.Float)
	half := knapsack.Half(gen.Float)
	fmt.Fprintf(stdout, "\nbaselines (profit): greedy=%.4f  half=%.4f", greedy.Profit, half.Profit)
	if res, err := knapsack.DPByWeight(gen.Int); err == nil {
		fmt.Fprintf(stdout, "  exact=%.4f", res.Profit*gen.Scale)
	}
	fmt.Fprintln(stdout)
	return 0
}
