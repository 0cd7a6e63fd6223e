package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadModuleGraph loads the real module once and builds its call
// graph; the graph tests below share the result.
func loadModuleGraph(t *testing.T) *CallGraph {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	loader, err := sharedLoader(root)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	return buildCallGraph(pkgs)
}

// TestHotRootsResolve pins the hot-root table to the tree: every
// configured root must name a function that still exists, so the
// table cannot silently rot across refactors and leave a serving path
// unlinted.
func TestHotRootsResolve(t *testing.T) {
	g := loadModuleGraph(t)
	for key := range defaultHotRoots {
		if g.nodes[key] == nil {
			t.Errorf("hot root %q does not resolve to a function in the module", key)
		}
	}
}

// TestHotnessPropagation checks the flood and the clamp: roots carry
// their declared level, propagation reaches static callees, and an
// explicit derive-level root stays at derive even though the strict
// query path calls into it (the declared cost model wins).
func TestHotnessPropagation(t *testing.T) {
	g := loadModuleGraph(t)
	for key, want := range map[string]hotLevel{
		// Declared roots keep their level.
		"lcakp/internal/gateway.(answerCache).get":     hotQuery,
		"lcakp/internal/engine.(TenantTable).GetEpoch": hotQuery,
		// ComputeRule is reachable from the query-level serving path but
		// is clamped to its declared derive level.
		"lcakp/internal/core.(LCAKP).ComputeRule": hotDerive,
	} {
		if got := g.Hotness(key); got != want {
			t.Errorf("Hotness(%q) = %v, want %v", key, got, want)
		}
	}
	// Propagation must reach beyond the root set: the gateway cache
	// get/put roots call into the shard helper.
	hot := 0
	for key, lvl := range g.hot {
		if lvl != hotNone && !strings.Contains(key, "testdata") {
			hot++
		}
	}
	if hot <= len(defaultHotRoots) {
		t.Errorf("only %d hot functions for %d roots; propagation through call edges is not happening",
			hot, len(defaultHotRoots))
	}
}

// TestDiagnosticPositions verifies position accuracy end to end: the
// make-map finding in the hotalloc golden package must land on the
// exact line and column of the make token, not merely somewhere in
// the file.
func TestDiagnosticPositions(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	dir := filepath.Join(root, "internal", "lint", "testdata", "src", "hotalloc")
	src, err := os.ReadFile(filepath.Join(dir, "bad.go"))
	if err != nil {
		t.Fatalf("read golden source: %v", err)
	}
	wantLine, wantCol := 0, 0
	for i, line := range strings.Split(string(src), "\n") {
		if idx := strings.Index(line, "make(map[int]bool"); idx >= 0 {
			wantLine, wantCol = i+1, strings.Index(line, "make(")+1
			break
		}
	}
	if wantLine == 0 {
		t.Fatalf("sentinel make(map[int]bool...) not found in golden source")
	}

	res, err := RunSuite(root, []string{dir}, []*Analyzer{Hotalloc})
	if err != nil {
		t.Fatalf("run hotalloc: %v", err)
	}
	for _, d := range res.Diagnostics {
		pos := res.Fset.Position(d.Pos)
		if filepath.Base(pos.Filename) != "bad.go" || pos.Line != wantLine {
			continue
		}
		if !strings.Contains(d.Message, "make allocates") {
			continue
		}
		if pos.Column != wantCol {
			t.Errorf("make finding at column %d, want %d (line %d)", pos.Column, wantCol, wantLine)
		}
		return
	}
	t.Errorf("no make-allocates finding on bad.go:%d", wantLine)
}
