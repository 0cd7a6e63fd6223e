package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// scopePath normalizes an analysis unit's path for scope matching:
// the external test package of a package shares its subject's scope.
func scopePath(path string) string {
	return strings.TrimSuffix(path, "_test")
}

// inScope reports whether a pass's package is governed by an analyzer
// configured for the given real import paths. Packages under the
// lint testdata tree are matched by directory base name instead: a
// golden package opts in by being named after its analyzer (exactly,
// or with an underscore suffix such as detrand_fix), while an "_out"
// suffix opts out — the passing case demonstrating the scope
// boundary.
func inScope(pass *Pass, realPaths []string, testdataName string) bool {
	path := scopePath(pass.Path())
	if td, ok := testdataScoped(path, testdataName); td {
		return ok
	}
	return slices.Contains(realPaths, path)
}

// testdataScoped reports whether path lies under the lint testdata
// tree and, if so, whether its base name opts in to the named
// analyzer.
func testdataScoped(path, testdataName string) (isTestdata, scoped bool) {
	if !strings.Contains(path, "lint/testdata/") {
		return false, false
	}
	base := path[strings.LastIndex(path, "/")+1:]
	if strings.HasSuffix(base, "_out") {
		return true, false
	}
	return true, base == testdataName || strings.HasPrefix(base, testdataName+"_")
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (for both plain and method calls), or nil.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// funcFrom reports whether fn is the named function of the named
// package (by import path).
func funcFrom(fn *types.Func, pkgPath, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// flatParams expands a field list into one entry per declared
// parameter (a single type shared by several names counts once per
// name; an anonymous parameter counts once).
func flatParams(fields *ast.FieldList) []*ast.Field {
	if fields == nil {
		return nil
	}
	var out []*ast.Field
	for _, f := range fields.List {
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			out = append(out, f)
		}
	}
	return out
}

// errorType is the universe error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorValued reports whether t implements error.
func isErrorValued(t types.Type) bool {
	return types.Implements(t, errorType)
}

// findImport looks up a package by import path in the transitive
// imports of pkg (including pkg itself), or nil.
func findImport(pkg *types.Package, path string) *types.Package {
	if pkg.Path() == path {
		return pkg
	}
	seen := map[*types.Package]bool{pkg: true}
	queue := []*types.Package{pkg}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, imp := range p.Imports() {
			if imp.Path() == path {
				return imp
			}
			if !seen[imp] {
				seen[imp] = true
				queue = append(queue, imp)
			}
		}
	}
	return nil
}

// fileImports reports whether file imports the given path.
func fileImports(file *ast.File, path string) bool {
	for _, imp := range file.Imports {
		if strings.Trim(imp.Path.Value, `"`) == path {
			return true
		}
	}
	return false
}
