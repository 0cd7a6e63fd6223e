package lint

import (
	"go/ast"
	"go/token"
)

// ctxfirstPackages are the query-path packages of the PR 1 refactor:
// every layer between a caller's context and the oracle accesses it
// bounds.
var ctxfirstPackages = []string{
	"lcakp/internal/oracle",
	"lcakp/internal/core",
	"lcakp/internal/engine",
	"lcakp/internal/cluster",
}

// queryPathNames are the access- and query-shaped operations that
// must accept a context: the oracle.Oracle/Sampler and engine.Querier
// method sets plus the run entry points built on them.
var queryPathNames = map[string]bool{
	"Query":       true,
	"QueryBatch":  true,
	"QueryItem":   true,
	"Sample":      true,
	"SampleFrame": true,
	"SampleIndex": true,
	"ComputeRule": true,
}

// Ctxfirst preserves the context-aware query path: every function
// that takes a context.Context takes it first (module-wide), and in
// the query-path packages the exported query/access operations must
// take one at all. A query that cannot be canceled or deadline-bounded
// regresses the PR 1 serving contract — budget and cancellation
// outcomes only propagate if every layer threads ctx.
var Ctxfirst = &Analyzer{
	Name: "ctxfirst",
	Doc:  "context.Context must be the first parameter, and exported query-path operations must accept one",
	Run:  runCtxfirst,
}

// runCtxfirst executes the ctxfirst check.
func runCtxfirst(pass *Pass) error {
	strict := inScope(pass, ctxfirstPackages, "ctxfirst")
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkCtxPosition(pass, n.Type, "function "+n.Name.Name)
				if strict && n.Name.IsExported() && queryPathNames[n.Name.Name] && !pass.IsTestFile(n.Pos()) {
					checkCtxRequired(pass, n.Type, "function "+n.Name.Name)
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					ft, ok := m.Type.(*ast.FuncType)
					if ok && len(m.Names) == 1 {
						name := m.Names[0].Name
						checkCtxPosition(pass, ft, "method "+name)
						if strict && ast.IsExported(name) && queryPathNames[name] && !pass.IsTestFile(m.Pos()) {
							checkCtxRequired(pass, ft, "interface method "+name)
						}
					}
				}
			case *ast.FuncLit:
				checkCtxPosition(pass, n.Type, "function literal")
			}
			return true
		})
	}
	return nil
}

// checkCtxPosition reports a context.Context parameter that is not
// the first parameter.
func checkCtxPosition(pass *Pass, ft *ast.FuncType, what string) {
	params := flatParams(ft.Params)
	for i, f := range params {
		if tv, ok := pass.TypesInfo.Types[f.Type]; ok && isContextType(tv.Type) {
			if i > 0 {
				pass.Reportf(f.Type.Pos(), "%s takes context.Context as parameter %d; the context must be the first parameter so callers and middleware agree on the query-path signature", what, i+1)
			}
			return
		}
	}
}

// checkCtxRequired reports a query-path operation that takes no
// context.Context at all. A present-but-misplaced context is left to
// checkCtxPosition, so one defect yields one diagnostic.
func checkCtxRequired(pass *Pass, ft *ast.FuncType, what string) {
	for _, f := range flatParams(ft.Params) {
		if tv, ok := pass.TypesInfo.Types[f.Type]; ok && isContextType(tv.Type) {
			return
		}
	}
	pos := ft.Pos()
	if ft.Params != nil && ft.Params.Pos() != token.NoPos {
		pos = ft.Params.Pos()
	}
	pass.Reportf(pos, "%s is on the query path but takes no context.Context first parameter; uncancellable queries break the serving contract (budget, deadline, and cancellation outcomes)", what)
}
