// Command servebench is the repository's serving benchmark. One run
// brings the deployed stack up in one process — an instance server,
// two multi-tenant LCA replicas, the gateway on a query server, and
// where the workload needs them an artifact store and epoch managers —
// drives it closed loop over the wire from at most two connections,
// checks every answer against reference answers it computed itself,
// and prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics of a second, traced window).
//
// Run it from the repository root through the build script:
//
//	bash servebench/run.sh --workload hot-cache --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is the result:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"setup_s":{"value":1.41,"unit":"s"},...}}
//
// and the line before it carries the diagnostics (environment, host
// steal share, per-connection request counts, disagreement rate, and
// for traced runs the tracing overhead). See README.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workDir holds the artifact stores and span files a run writes; the
// build script keeps the build there too.
const workDir = ".bench_build/servebench"

// minBeyondP99 is the fewest samples that must lie beyond the reported
// p99 for it to be a measured percentile rather than a guess.
const minBeyondP99 = 10

// run executes one benchmark run and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("servebench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		name  = flags.String("workload", "", fmt.Sprintf("workload %v", workloadNames()))
		seed  = flags.Uint64("seed", 1, "input seed: instance, tenants, mutation schedule and request streams derive from it")
		secs  = flags.Float64("seconds", 25, "measured window in seconds")
		trace = flags.Int("trace", 0, "1: print per-layer metrics from a traced window run after the untraced one")
	)
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "servebench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	cfg, err := configFor(*name, *seed, time.Duration(*secs*float64(time.Second)))
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 2
	}
	traced := *trace == 1
	out, err := execute(context.Background(), cfg, workDir, traced, filepath.Join(workDir, "spans-"+cfg.workload+".jsonl"))
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	if n, _ := out.diag["beyond_p99"].(int64); n < minBeyondP99 {
		fmt.Fprintf(stderr, "servebench: only %d latency samples beyond p99 (want >= %d): lengthen --seconds\n", n, minBeyondP99)
		return 1
	}
	if err := out.print(stdout, traced); err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	if !out.correct {
		fmt.Fprintln(stderr, "servebench: correctness gate failed")
		return 1
	}
	return 0
}

// execute prepares the inputs, measures the untraced window and, for a
// traced run, a second window over a traced stack whose spans are
// written to spansPath.
func execute(ctx context.Context, cfg config, root string, traced bool, spansPath string) (*outcome, error) {
	in, err := prepare(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	dir := filepath.Join(root, fmt.Sprintf("store-%d", os.Getpid()))
	plain, err := measure(ctx, cfg, in, dir, cfg.setups, nil)
	if err != nil {
		return nil, err
	}
	ok, diag := plain.gate(in)
	out := &outcome{correct: ok, endToEnd: plain.endToEnd(), diag: diag}
	out.attempted, out.failed = diag["attempted"].(int64), diag["failed"].(int64)
	diag["workload"], diag["seed"], diag["window_s"] = cfg.workload, cfg.seed, cfg.window.Seconds()
	diag["environment"] = environment()
	diag["true_share"] = in.trueShare
	diag["setup_s"] = plain.setupS
	if !traced {
		return out, nil
	}

	// One set-up suffices: the traced window reports layers, not setup_s.
	pr := newProbes()
	tr, err := measure(ctx, cfg, in, dir, 1, pr)
	if err != nil {
		return nil, fmt.Errorf("traced window: %w", err)
	}
	trOK, trDiag := tr.gate(in)
	out.correct = out.correct && trOK
	out.attempted += trDiag["attempted"].(int64)
	out.failed += trDiag["failed"].(int64)
	out.perLayer = tr.perLayer()
	diag["traced"] = trDiag
	diag["tracing_overhead"] = overhead(out.endToEnd, tr.endToEnd())
	if err := pr.spans.write(spansPath); err != nil {
		return nil, fmt.Errorf("spans: %w", err)
	}
	diag["spans"] = map[string]any{"path": spansPath, "kept": len(pr.spans.spans), "dropped": pr.spans.dropped}
	return out, nil
}
