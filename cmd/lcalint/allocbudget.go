package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// budgetFileName is the checked-in allocation ground truth at the
// module root: the benchmarks named there are re-measured by
// -allocbudget, and the measured allocs/op (and B/op, where pinned)
// must not exceed the pinned budgets. The //lint:alloc waivers in the
// tree answer to this file — a waiver claiming "measured 0 allocs/op"
// that stops being true fails here even though the static analyzer
// stays quiet.
const budgetFileName = "ALLOC_BUDGET.json"

// budgetFile is the schema of ALLOC_BUDGET.json.
type budgetFile struct {
	// Comment documents the file for human readers.
	Comment string `json:"comment,omitempty"`
	// Benchmarks are the pinned budgets.
	Benchmarks []budgetEntry `json:"benchmarks"`
}

// budgetEntry pins one benchmark's allocation budget.
type budgetEntry struct {
	// Name is the full benchmark name, including any sub-benchmark
	// path (e.g. "BenchmarkGatewayVsDirect/gateway-cached").
	Name string `json:"name"`
	// Package is the module-relative package directory.
	Package string `json:"package"`
	// MaxAllocsPerOp is the inclusive budget; the measured allocs/op
	// failing it fails the run.
	MaxAllocsPerOp int64 `json:"max_allocs_per_op"`
	// MaxBytesPerOp, when set, is the inclusive budget for the
	// measured B/op. Unlike the allocation count it is set by hand,
	// with headroom for what a benchmark allocates now and then (a
	// pooled buffer the GC dropped, say); -update-budget leaves it.
	MaxBytesPerOp *int64 `json:"max_bytes_per_op,omitempty"`
}

// benchMeasurement is one parsed benchmark result line.
type benchMeasurement struct {
	nsPerOp     float64
	bytesPerOp  int64
	allocsPerOp int64
}

// runAllocBudget re-measures every budgeted benchmark with
// `go test -bench -benchmem` and compares against the pinned budgets.
// With update true the measured values are written back to the budget
// file instead of failing. Exit status: 0 within budget, 1 on excess
// or missing measurement, 2 on load or toolchain errors.
func runAllocBudget(root string, update bool, stdout, stderr io.Writer) int {
	path := filepath.Join(root, budgetFileName)
	budget, err := loadBudget(path)
	if err != nil {
		fmt.Fprintln(stderr, "lcalint:", err)
		return 2
	}

	measured := map[string]benchMeasurement{}
	for _, pkg := range budgetPackages(budget.Benchmarks) {
		out, err := runBenchmarks(root, pkg, budget.Benchmarks)
		if err != nil {
			fmt.Fprintf(stderr, "lcalint: bench %s: %v\n%s", pkg, err, out)
			return 2
		}
		for name, m := range parseBenchOutput(out) {
			measured[name] = m
		}
	}

	failures := 0
	for i := range budget.Benchmarks {
		e := &budget.Benchmarks[i]
		m, ok := measured[e.Name]
		if !ok {
			failures++
			fmt.Fprintf(stdout, "MISSING %-55s not reported by %s\n", e.Name, e.Package)
			continue
		}
		status, bytesBudget := "ok", ""
		over := m.allocsPerOp > e.MaxAllocsPerOp
		if e.MaxBytesPerOp != nil {
			bytesBudget = fmt.Sprintf(" (budget %d)", *e.MaxBytesPerOp)
			over = over || m.bytesPerOp > *e.MaxBytesPerOp
		}
		if over {
			status = "OVER"
			failures++
		}
		fmt.Fprintf(stdout, "%-7s %-55s %6d allocs/op (budget %d)  %10.1f ns/op  %6d B/op%s\n",
			status, e.Name, m.allocsPerOp, e.MaxAllocsPerOp, m.nsPerOp, m.bytesPerOp, bytesBudget)
		if update {
			e.MaxAllocsPerOp = m.allocsPerOp
		}
	}

	if update {
		if err := writeBudget(path, budget); err != nil {
			fmt.Fprintln(stderr, "lcalint:", err)
			return 2
		}
		fmt.Fprintf(stdout, "updated: %s\n", path)
		return 0
	}
	if failures > 0 {
		fmt.Fprintf(stdout, "%d benchmark(s) over or missing their allocation budget\n", failures)
		return 1
	}
	return 0
}

// loadBudget reads and validates the budget file.
func loadBudget(path string) (*budgetFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("load allocation budget: %w", err)
	}
	var budget budgetFile
	if err := json.Unmarshal(data, &budget); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(budget.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s pins no benchmarks", path)
	}
	for _, e := range budget.Benchmarks {
		if e.Name == "" || e.Package == "" {
			return nil, fmt.Errorf("%s: every entry needs a name and a package", path)
		}
	}
	return &budget, nil
}

// writeBudget rewrites the budget file preserving the schema.
func writeBudget(path string, budget *budgetFile) error {
	data, err := json.MarshalIndent(budget, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// budgetPackages returns the distinct package directories in first-use
// order.
func budgetPackages(entries []budgetEntry) []string {
	var pkgs []string
	seen := map[string]bool{}
	for _, e := range entries {
		if !seen[e.Package] {
			seen[e.Package] = true
			pkgs = append(pkgs, e.Package)
		}
	}
	return pkgs
}

// benchRegexp builds the anchored -bench pattern selecting the
// package's budgeted top-level benchmarks.
func benchRegexp(pkg string, entries []budgetEntry) string {
	var tops []string
	seen := map[string]bool{}
	for _, e := range entries {
		if e.Package != pkg {
			continue
		}
		top, _, _ := strings.Cut(e.Name, "/")
		if !seen[top] {
			seen[top] = true
			tops = append(tops, top)
		}
	}
	return "^(" + strings.Join(tops, "|") + ")$"
}

// runBenchmarks invokes go test -bench -benchmem for one package and
// returns the combined output.
func runBenchmarks(root, pkg string, entries []budgetEntry) (string, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", benchRegexp(pkg, entries), "-benchmem", "-count", "1", pkg)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// parseBenchOutput extracts the per-benchmark measurements from go
// test -bench -benchmem output. Benchmark names are normalized by
// stripping the trailing -GOMAXPROCS suffix.
func parseBenchOutput(out string) map[string]benchMeasurement {
	results := map[string]benchMeasurement{}
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := trimProcsSuffix(fields[0])
		var m benchMeasurement
		seenUnit := false
		for i := 2; i < len(fields); i++ {
			val := fields[i-1]
			switch fields[i] {
			case "ns/op":
				m.nsPerOp, _ = strconv.ParseFloat(val, 64)
				seenUnit = true
			case "B/op":
				m.bytesPerOp, _ = strconv.ParseInt(val, 10, 64)
				seenUnit = true
			case "allocs/op":
				m.allocsPerOp, _ = strconv.ParseInt(val, 10, 64)
				seenUnit = true
			}
		}
		if seenUnit {
			results[name] = m
		}
	}
	return results
}

// trimProcsSuffix drops the "-N" GOMAXPROCS suffix go test appends to
// benchmark names ("BenchmarkX/sub-case-8" -> "BenchmarkX/sub-case").
func trimProcsSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	suffix := name[i+1:]
	if suffix == "" {
		return name
	}
	for _, r := range suffix {
		if r < '0' || r > '9' {
			return name
		}
	}
	return name[:i]
}
