package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Errsentinel flags ==/!= comparisons against sentinel error values.
// The query path wraps every error it propagates (fmt.Errorf with %w
// through core, engine, and cluster), so a direct comparison against
// oracle.ErrOutOfRange, context.Canceled, or any other sentinel
// silently stops matching one wrap level later — which is exactly how
// cancellation and deadline outcomes would quietly misclassify.
// Matching must go through errors.Is.
var Errsentinel = &Analyzer{
	Name: "errsentinel",
	Doc:  "sentinel errors must be matched with errors.Is, never == or !=",
	Run:  runErrsentinel,
}

// runErrsentinel executes the errsentinel check over all packages,
// tests included (historically where direct comparisons accumulate).
func runErrsentinel(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				sentinel, other := sentinelOperand(pass, n.X, n.Y)
				if sentinel == nil {
					return true
				}
				d := Diagnostic{
					Pos: n.Pos(),
					End: n.End(),
					Message: fmt.Sprintf(
						"comparison against sentinel %s with %s; wrapped errors will not match — use errors.Is",
						sentinelName(pass, sentinel), n.Op),
				}
				if fix, ok := errorsIsFix(pass, file, n, sentinel, other); ok {
					d.SuggestedFixes = []SuggestedFix{fix}
				}
				pass.Report(d)
			case *ast.SwitchStmt:
				if n.Tag == nil {
					return true
				}
				tv, ok := pass.TypesInfo.Types[n.Tag]
				if !ok || !isErrorValued(tv.Type) {
					return true
				}
				for _, stmt := range n.Body.List {
					cc, ok := stmt.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, e := range cc.List {
						if s := sentinelObject(pass, e); s != nil {
							pass.Reportf(e.Pos(), "switch case compares sentinel %s with ==; wrapped errors will not match — use errors.Is in an if/else chain", sentinelName(pass, s))
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// sentinelOperand returns (sentinel expression's object, the other
// operand) when exactly the pattern `x ==/!= Sentinel` (either order)
// is present.
func sentinelOperand(pass *Pass, x, y ast.Expr) (types.Object, ast.Expr) {
	if s := sentinelObject(pass, x); s != nil {
		return s, y
	}
	if s := sentinelObject(pass, y); s != nil {
		return s, x
	}
	return nil, nil
}

// sentinelObject resolves e to a package-level sentinel error
// variable, or nil. Sentinels are error-typed package-level vars
// named Err* plus the well-known stdlib exceptions (io.EOF,
// context.Canceled, context.DeadlineExceeded).
func sentinelObject(pass *Pass, e ast.Expr) types.Object {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return nil
	}
	if !isErrorValued(obj.Type()) {
		return nil
	}
	name := obj.Name()
	switch {
	case len(name) >= 3 && name[:3] == "Err":
		return obj
	case obj.Pkg().Path() == "io" && name == "EOF":
		return obj
	case obj.Pkg().Path() == "context" && (name == "Canceled" || name == "DeadlineExceeded"):
		return obj
	}
	return nil
}

// sentinelName renders a sentinel for diagnostics, qualified by its
// package when it is foreign.
func sentinelName(pass *Pass, obj types.Object) string {
	if obj.Pkg() != nil && obj.Pkg() != pass.Pkg {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return obj.Name()
}

// errorsIsFix rewrites `x == Sentinel` to `errors.Is(x, Sentinel)`
// (negated for !=) when the file already imports "errors".
func errorsIsFix(pass *Pass, file *ast.File, cmp *ast.BinaryExpr, sentinel types.Object, other ast.Expr) (SuggestedFix, bool) {
	if file == nil || !fileImports(file, "errors") {
		return SuggestedFix{}, false
	}
	sentinelExpr := cmp.Y
	if sentinelObject(pass, cmp.X) != nil {
		sentinelExpr = cmp.X
	}
	neg := ""
	if cmp.Op == token.NEQ {
		neg = "!"
	}
	text := fmt.Sprintf("%serrors.Is(%s, %s)", neg, types.ExprString(other), types.ExprString(sentinelExpr))
	return SuggestedFix{
		Message: "use errors.Is",
		TextEdits: []TextEdit{{
			Pos:     cmp.Pos(),
			End:     cmp.End(),
			NewText: []byte(text),
		}},
	}, true
}
