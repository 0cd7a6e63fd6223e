package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestList prints the analyzer roster.
func TestList(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d (stderr: %s)", code, errOut.String())
	}
	for _, name := range []string{"detrand", "ctxfirst", "mapiter", "errsentinel", "rawwrap"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing analyzer %s:\n%s", name, out.String())
		}
	}
}

// TestFindingsExitNonzero runs the driver over a lint golden package
// and expects diagnostics plus exit status 1.
func TestFindingsExitNonzero(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "lint", "testdata", "src", "detrand")
	var out, errOut strings.Builder
	code := run([]string{dir}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(out.String(), "detrand") || !strings.Contains(out.String(), "math/rand") {
		t.Errorf("diagnostics missing expected content:\n%s", out.String())
	}
}

// TestFixRewritesSentinelComparison runs -fix against a throwaway
// module and verifies the errors.Is rewrite lands on disk.
func TestFixRewritesSentinelComparison(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module fixme\n\ngo 1.24\n")
	src := `package fixme

import "errors"

// ErrGone is a sentinel.
var ErrGone = errors.New("gone")

// IsGone compares directly.
func IsGone(err error) bool { return err == ErrGone }
`
	path := filepath.Join(dir, "fixme.go")
	writeFile(t, path, src)

	var out, errOut strings.Builder
	code := run([]string{"-fix", dir}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (a finding was reported and fixed; stderr: %s)", code, errOut.String())
	}
	fixed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(fixed), "errors.Is(err, ErrGone)") {
		t.Errorf("fix not applied:\n%s", fixed)
	}
	if !strings.Contains(out.String(), "fixed: ") {
		t.Errorf("driver did not report the fixed file:\n%s", out.String())
	}
}

// TestCleanTreeExitsZero is the acceptance criterion: the suite over
// the repository's own module reports nothing.
func TestCleanTreeExitsZero(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module analysis in -short mode")
	}
	var out, errOut strings.Builder
	if code := run([]string{"./..."}, &out, &errOut); code != 0 {
		t.Fatalf("lcalint over the module exited %d:\n%s%s", code, out.String(), errOut.String())
	}
}

// TestJSONDiagnostics checks the machine-readable output: every
// diagnostic becomes one object with file/line/column/analyzer/
// message, and the stream is valid JSON.
func TestJSONDiagnostics(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "lint", "testdata", "src", "detrand")
	var out, errOut strings.Builder
	if code := run([]string{"-json", dir}, &out, &errOut); code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errOut.String())
	}
	var diags []jsonDiagnostic
	if err := json.Unmarshal([]byte(out.String()), &diags); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(diags) == 0 {
		t.Fatalf("no diagnostics decoded from:\n%s", out.String())
	}
	for _, d := range diags {
		if d.File == "" || d.Line <= 0 || d.Column <= 0 || d.Analyzer == "" || d.Message == "" {
			t.Errorf("incomplete diagnostic: %+v", d)
		}
	}
}

// TestJSONCleanTreeIsEmptyArray pins the clean-tree contract: -json
// emits a parseable empty array, not empty output.
func TestJSONCleanTreeIsEmptyArray(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "lint", "testdata", "src", "detrand_out")
	var out, errOut strings.Builder
	if code := run([]string{"-json", dir}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr: %s)", code, errOut.String())
	}
	var diags []jsonDiagnostic
	if err := json.Unmarshal([]byte(out.String()), &diags); err != nil || len(diags) != 0 {
		t.Fatalf("want an empty JSON array, got (err=%v):\n%s", err, out.String())
	}
}

// TestParseBenchOutput covers the -benchmem line grammar, including
// sub-benchmark names, GOMAXPROCS suffixes, and non-benchmark noise.
func TestParseBenchOutput(t *testing.T) {
	const out = `goos: linux
goarch: amd64
pkg: lcakp/internal/gateway
BenchmarkGatewayVsDirect/direct         	    1444	    774421 ns/op	  264099 B/op	      26 allocs/op
BenchmarkGatewayVsDirect/gateway-cached 	13884078	        84.70 ns/op	       0 B/op	       0 allocs/op
BenchmarkTenantTableLookup-8 	22003690	        55.42 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	lcakp/internal/gateway	5.079s
`
	got := parseBenchOutput(out)
	if len(got) != 3 {
		t.Fatalf("parsed %d results, want 3: %+v", len(got), got)
	}
	direct := got["BenchmarkGatewayVsDirect/direct"]
	if direct.allocsPerOp != 26 || direct.bytesPerOp != 264099 || direct.nsPerOp != 774421 {
		t.Errorf("direct = %+v, want 26 allocs, 264099 B, 774421 ns", direct)
	}
	if got["BenchmarkGatewayVsDirect/gateway-cached"].allocsPerOp != 0 {
		t.Errorf("gateway-cached allocs = %d, want 0", got["BenchmarkGatewayVsDirect/gateway-cached"].allocsPerOp)
	}
	if _, ok := got["BenchmarkTenantTableLookup"]; !ok {
		t.Errorf("GOMAXPROCS suffix not stripped: %+v", got)
	}
}

// TestTrimProcsSuffix pins the name normalization on tricky shapes:
// dashes inside sub-benchmark names must survive.
func TestTrimProcsSuffix(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkX-8":                 "BenchmarkX",
		"BenchmarkX/gateway-cached-16": "BenchmarkX/gateway-cached",
		"BenchmarkX/gateway-cached":    "BenchmarkX/gateway-cached",
		"BenchmarkX":                   "BenchmarkX",
		"BenchmarkX/sub-2-case-4":      "BenchmarkX/sub-2-case",
	} {
		if got := trimProcsSuffix(in); got != want {
			t.Errorf("trimProcsSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestBudgetFileParses validates the checked-in ALLOC_BUDGET.json:
// it must load, and every pinned package directory must exist.
func TestBudgetFileParses(t *testing.T) {
	root := filepath.Join("..", "..")
	budget, err := loadBudget(filepath.Join(root, budgetFileName))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range budget.Benchmarks {
		if st, err := os.Stat(filepath.Join(root, e.Package)); err != nil || !st.IsDir() {
			t.Errorf("budget entry %s names missing package %s", e.Name, e.Package)
		}
	}
}

// TestAllocBudgetFailsOnExcess runs the harness end to end against a
// throwaway module whose benchmark allocates past its pinned budget.
func TestAllocBudgetFailsOnExcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go test in -short mode")
	}
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module budgeted\n\ngo 1.24\n")
	writeFile(t, filepath.Join(dir, "alloc.go"), `package budgeted

// Grow allocates on every call.
func Grow(n int) []byte { return make([]byte, n) }
`)
	writeFile(t, filepath.Join(dir, "alloc_test.go"), `package budgeted

import "testing"

func BenchmarkGrow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Grow(64)
	}
}
`)
	writeFile(t, filepath.Join(dir, budgetFileName), `{
  "benchmarks": [
    {"name": "BenchmarkGrow", "package": ".", "max_allocs_per_op": 0}
  ]
}
`)
	var out, errOut strings.Builder
	if code := run([]string{"-allocbudget", dir}, &out, &errOut); code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "OVER") {
		t.Errorf("excess not reported as OVER:\n%s", out.String())
	}

	// Raising the budget to the measured value turns the run green.
	writeFile(t, filepath.Join(dir, budgetFileName), `{
  "benchmarks": [
    {"name": "BenchmarkGrow", "package": ".", "max_allocs_per_op": 1}
  ]
}
`)
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-allocbudget", dir}, &out, &errOut); code != 0 {
		t.Fatalf("within-budget exit = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}

	// Within its allocation count but past a byte budget: the 64-byte
	// allocation fails a 32 B/op pin and passes a 64 B/op one.
	for _, tc := range []struct {
		maxBytes int
		code     int
	}{{32, 1}, {64, 0}} {
		writeFile(t, filepath.Join(dir, budgetFileName), fmt.Sprintf(`{
  "benchmarks": [
    {"name": "BenchmarkGrow", "package": ".", "max_allocs_per_op": 1, "max_bytes_per_op": %d}
  ]
}
`, tc.maxBytes))
		out.Reset()
		errOut.Reset()
		if code := run([]string{"-allocbudget", dir}, &out, &errOut); code != tc.code {
			t.Fatalf("byte budget %d: exit = %d, want %d\nstdout: %s\nstderr: %s", tc.maxBytes, code, tc.code, out.String(), errOut.String())
		}
		if want := fmt.Sprintf("B/op (budget %d)", tc.maxBytes); !strings.Contains(out.String(), want) {
			t.Errorf("byte budget %d: report lacks %q:\n%s", tc.maxBytes, want, out.String())
		}
		if got := strings.Contains(out.String(), "OVER"); got != (tc.code == 1) {
			t.Errorf("byte budget %d: OVER reported %v, want %v:\n%s", tc.maxBytes, got, tc.code == 1, out.String())
		}
	}
}

// writeFile writes a test fixture.
func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
