package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSuiteCleanOnModule is the regression guard CI enforces: the
// full analyzer suite over the whole module reports nothing. Any new
// violation of a determinism or consistency invariant fails this test
// before it can ship.
func TestSuiteCleanOnModule(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	res, err := RunSuite(root, nil, nil)
	if err != nil {
		t.Fatalf("run suite: %v", err)
	}
	for _, d := range res.Diagnostics {
		t.Errorf("%s: %s (%s)", res.Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
}

// TestSuiteGoldenCoverage asserts every analyzer in the Suite ships a
// golden testdata package named after it, containing at least one
// // want expectation — a new analyzer cannot land untested, and a
// renamed one cannot orphan its goldens.
func TestSuiteGoldenCoverage(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	for _, a := range Suite {
		dir := filepath.Join(root, "internal", "lint", "testdata", "src", a.Name)
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			t.Errorf("analyzer %s has no golden testdata package at %s", a.Name, dir)
			continue
		}
		wants, err := collectWants(dir)
		if err != nil {
			t.Errorf("analyzer %s: collect wants: %v", a.Name, err)
			continue
		}
		if len(wants) == 0 {
			t.Errorf("analyzer %s golden package has no // want expectations (no true positives exercised)", a.Name)
		}
	}
}

// TestLoaderCoversModule sanity-checks the loader: the analysis
// surface must include the packages the analyzers guard, with their
// test variants.
func TestLoaderCoversModule(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatalf("new loader: %v", err)
	}
	if loader.modulePath != "lcakp" {
		t.Fatalf("module path = %q, want lcakp", loader.modulePath)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	for _, want := range []string{
		"lcakp",
		"lcakp/internal/core",
		"lcakp/internal/oracle",
		"lcakp/internal/engine",
		"lcakp/internal/cluster",
		"lcakp/internal/lint",
		"lcakp/cmd/lcalint",
	} {
		if byPath[want] == nil {
			t.Errorf("package %s not loaded", want)
		}
	}
	core := byPath["lcakp/internal/core"]
	if core == nil || !core.TestVariant {
		t.Errorf("internal/core should load as its test variant (in-package _test.go files merged)")
	}
	for _, p := range pkgs {
		if strings.Contains(p.Path, "testdata") {
			t.Errorf("testdata package %s leaked into the module load", p.Path)
		}
	}
}
