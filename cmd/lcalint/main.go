// Command lcalint runs the lcakp static-analysis suite: custom
// analyzers that mechanically enforce the paper's consistency and
// determinism invariants (see internal/lint and DESIGN.md §8).
//
// Usage:
//
//	lcalint [-fix] [-list] [-json] [packages]
//	lcalint -allocbudget [-update-budget]
//	lcalint -unlinked
//
// With "./..." (or no arguments) the whole module containing the
// working directory is analyzed; otherwise each argument names a
// package directory. The exit status is 0 when the tree is clean, 1
// when diagnostics were reported, and 2 on usage or load errors.
//
// -allocbudget switches from static analysis to measurement: the
// benchmarks pinned in ALLOC_BUDGET.json at the module root are re-run
// with -benchmem and the measured allocs/op, and B/op where an entry
// pins bytes too, compared against the checked-in budgets (exit 1 on
// excess). -update-budget rewrites the allocation budgets to the
// measured values instead; byte budgets carry deliberate headroom and
// are edited by hand.
//
// -unlinked takes the inventory of code no binary runs: it builds every
// main package of the module, and of each module nested in it, with
// inlining off, reads the binaries' text symbols, and fails on a
// production function that none of them links unless UNLINKED.json at
// the module root names it with an allowed reason (exit 1 also on a
// stale entry or one without a reason).
//
//	go run ./cmd/lcalint ./...          # what CI's lint job runs
//	go run ./cmd/lcalint -json ./...    # machine-readable diagnostics
//	go run ./cmd/lcalint -fix ./...     # apply cheap suggested fixes
//	go run ./cmd/lcalint -allocbudget   # what CI's alloc-budget job runs
//	go run ./cmd/lcalint -unlinked      # what CI's unlinked job runs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"lcakp/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the driver; split from main for testing.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("lcalint", flag.ContinueOnError)
	flags.SetOutput(stderr)
	fix := flags.Bool("fix", false, "apply suggested fixes to the source files")
	list := flags.Bool("list", false, "list the analyzers and exit")
	jsonOut := flags.Bool("json", false, "emit diagnostics as a JSON array")
	allocBudget := flags.Bool("allocbudget", false, "re-measure the benchmarks pinned in ALLOC_BUDGET.json and fail on budget excess")
	updateBudget := flags.Bool("update-budget", false, "with -allocbudget, write the measured values back to ALLOC_BUDGET.json")
	unlinked := flags.Bool("unlinked", false, "list the production functions no binary links and fail on any UNLINKED.json does not allow")
	flags.Usage = func() {
		fmt.Fprintln(stderr, "usage: lcalint [-fix] [-list] [-json] [packages]")
		fmt.Fprintln(stderr, "       lcalint -allocbudget [-update-budget]")
		fmt.Fprintln(stderr, "       lcalint -unlinked")
		flags.PrintDefaults()
	}
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.Suite {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	root, dirs, err := resolveTargets(flags.Args())
	if err != nil {
		fmt.Fprintln(stderr, "lcalint:", err)
		return 2
	}
	if *allocBudget {
		return runAllocBudget(root, *updateBudget, stdout, stderr)
	}
	if *unlinked {
		return runUnlinked(root, stdout, stderr)
	}
	res, err := lint.RunSuite(root, dirs, nil)
	if err != nil {
		fmt.Fprintln(stderr, "lcalint:", err)
		return 2
	}
	if *jsonOut {
		if err := writeJSON(stdout, res); err != nil {
			fmt.Fprintln(stderr, "lcalint:", err)
			return 2
		}
	} else {
		for _, d := range res.Diagnostics {
			fmt.Fprintf(stdout, "%s: %s (%s)\n", res.Fset.Position(d.Pos), d.Message, d.Analyzer)
		}
	}
	if *fix {
		fixed, err := res.ApplyFixes()
		if err != nil {
			fmt.Fprintln(stderr, "lcalint:", err)
			return 2
		}
		for _, f := range fixed {
			fmt.Fprintf(stdout, "fixed: %s\n", f)
		}
	}
	if len(res.Diagnostics) > 0 {
		return 1
	}
	return 0
}

// jsonDiagnostic is the machine-readable diagnostic shape emitted by
// -json, one object per finding.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// writeJSON emits the run's diagnostics as an indented JSON array
// (an empty array for a clean tree, so consumers can always parse).
func writeJSON(w io.Writer, res *lint.Result) error {
	out := make([]jsonDiagnostic, 0, len(res.Diagnostics))
	for _, d := range res.Diagnostics {
		pos := res.Fset.Position(d.Pos)
		out = append(out, jsonDiagnostic{
			File:     pos.Filename,
			Line:     pos.Line,
			Column:   pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// resolveTargets maps command-line package arguments to a module root
// plus an optional explicit directory list. "./..." (and the empty
// argument list) means the whole module containing the working
// directory; explicit directories are analyzed within the module that
// contains them.
func resolveTargets(args []string) (string, []string, error) {
	var dirs []string
	for _, arg := range args {
		if arg == "./..." || arg == "..." {
			dirs = nil
			break
		}
		abs, err := filepath.Abs(arg)
		if err != nil {
			return "", nil, err
		}
		dirs = append(dirs, abs)
	}
	anchor, err := os.Getwd()
	if err != nil {
		return "", nil, err
	}
	if len(dirs) > 0 {
		anchor = dirs[0]
	}
	root, err := findModuleRoot(anchor)
	if err != nil {
		return "", nil, err
	}
	return root, dirs, nil
}

// findModuleRoot walks up from dir to the enclosing go.mod.
func findModuleRoot(dir string) (string, error) {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
