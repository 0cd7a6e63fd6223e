// Package lint is lcalint: a suite of static analyzers that
// mechanically enforce the consistency and determinism invariants the
// reproduction's correctness rests on.
//
// The value of the Theorem 4.1 LCA is that the answered solution
// C(I, r) is a pure function of the instance and the shared seed. That
// property is global: one stray use of the math/rand global source, a
// time.Now in a solver path, or a Go map iteration feeding an output
// slice silently breaks the cross-replica consistency that Theorems
// 3.2-3.4 show is hard-won. The same goes for the conventions layered
// on top: ILPS22-style reproducibility in internal/repro, the
// context-first query path, errors.Is-based sentinel handling, and the
// rule that all oracle middleware goes through the internal/engine
// chain. This package turns those conventions into compiler-grade
// checks, run over the whole tree by cmd/lcalint in CI.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic, SuggestedFix) but is built purely on
// the standard library's go/ast, go/parser and go/types: the module is
// dependency-free by policy, so the vendored analysis machinery is
// reimplemented at the scale this suite needs rather than imported.
// Loading and typechecking (including stdlib imports, resolved from
// GOROOT source) lives in load.go; the analyzers live in their own
// files; the // want golden-comment test harness lives in
// analysistest_test.go.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check, mirroring
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and CLI output.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces
	// and which paper guarantee it protects.
	Doc string
	// Run executes the analyzer over one package.
	Run func(*Pass) error
}

// Pass carries one analyzed package to an Analyzer.Run, mirroring
// analysis.Pass.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps token positions to file locations. It is shared across
	// all packages of a load so cross-package positions compare.
	Fset *token.FileSet
	// Files are the package's parsed syntax trees.
	Files []*ast.File
	// Pkg is the typechecked package.
	Pkg *types.Package
	// TypesInfo holds the typechecker's expression and object facts.
	TypesInfo *types.Info
	// InTestVariant is true when Files include _test.go files (either
	// the in-package test variant or an external _test package).
	InTestVariant bool
	// Graph is the module-wide call graph shared by every pass of a
	// suite run; the hot-path analyzers (hotalloc, lockorder, spanend)
	// read hotness and lock-order facts from it. Nil when a pass runs
	// outside RunSuite.
	Graph *CallGraph

	diagnostics *[]Diagnostic
}

// Path returns the package's import path.
func (p *Pass) Path() string { return p.Pkg.Path() }

// Report records a diagnostic.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	*p.diagnostics = append(*p.diagnostics, d)
}

// Reportf records a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// IsTestFile reports whether pos lies in a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	if f == nil {
		return false
	}
	name := f.Name()
	return len(name) >= 8 && name[len(name)-8:] == "_test.go"
}

// Diagnostic is one finding, mirroring analysis.Diagnostic.
type Diagnostic struct {
	// Analyzer names the check that produced the finding (set by
	// Pass.Report).
	Analyzer string
	// Pos and End delimit the offending syntax; End may be NoPos.
	Pos, End token.Pos
	// Message describes the violation.
	Message string
	// SuggestedFixes are optional mechanical repairs, applied by the
	// driver's -fix mode.
	SuggestedFixes []SuggestedFix
}

// SuggestedFix is one candidate repair, mirroring
// analysis.SuggestedFix.
type SuggestedFix struct {
	// Message describes the fix.
	Message string
	// TextEdits are the edits implementing it; they must not overlap.
	TextEdits []TextEdit
}

// TextEdit replaces the source in [Pos, End) with NewText.
type TextEdit struct {
	Pos, End token.Pos
	NewText  []byte
}

// runAnalyzers executes the given analyzers over one loaded package
// and returns the diagnostics sorted by position.
func runAnalyzers(pkg *Package, analyzers []*Analyzer, graph *CallGraph) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:      a,
			Fset:          pkg.Fset,
			Files:         pkg.Files,
			Pkg:           pkg.Types,
			TypesInfo:     pkg.Info,
			InTestVariant: pkg.TestVariant,
			Graph:         graph,
			diagnostics:   &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	sortDiagnostics(pkg.Fset, diags)
	return diags, nil
}

// sortDiagnostics orders diagnostics by file position, then analyzer
// name, for stable output.
func sortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Offset != pj.Offset {
			return pi.Offset < pj.Offset
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}
