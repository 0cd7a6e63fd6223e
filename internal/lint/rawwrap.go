package lint

import (
	"go/types"
	"slices"
)

// rawwrapExempt are the packages allowed to compose oracle.Access
// values: internal/engine owns the middleware chain, the one
// sanctioned interception mechanism.
var rawwrapExempt = []string{
	"lcakp/internal/engine",
}

// Rawwrap flags oracle.Access implementations outside internal/engine
// that wrap another Access. Every cross-cutting concern (counting,
// per-query metrics) lives in the engine middleware chain precisely
// so instrumentation composes in one place and per-query Metrics see
// every access; an ad-hoc wrapper elsewhere reintroduces invisible
// layers the chain cannot account for.
var Rawwrap = &Analyzer{
	Name: "rawwrap",
	Doc:  "oracle.Access wrappers outside internal/engine are forbidden; compose middleware via the engine chain",
	Run:  runRawwrap,
}

// runRawwrap executes the rawwrap check.
func runRawwrap(pass *Pass) error {
	path := scopePath(pass.Path())
	if td, scoped := testdataScoped(path, "rawwrap"); td {
		if !scoped {
			return nil
		}
	} else if slices.Contains(rawwrapExempt, path) {
		return nil
	}
	oraclePkg := findImport(pass.Pkg, "lcakp/internal/oracle")
	if oraclePkg == nil {
		return nil
	}
	accessObj, ok := oraclePkg.Scope().Lookup("Access").(*types.TypeName)
	if !ok {
		return nil
	}
	access, ok := accessObj.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}

	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if pass.IsTestFile(tn.Pos()) {
			// Test doubles (erroring fakes, canned-answer accesses) are
			// legitimate; the rule governs production composition.
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		if !implementsAccess(named, access) {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if accessLike(f.Type(), access) {
				pass.Reportf(tn.Pos(),
					"type %s implements oracle.Access and wraps another Access in field %s; ad-hoc middleware bypasses the engine chain (per-query metrics would not see its accesses) — compose it with engine.Chain/engine.Wrap instead",
					name, f.Name())
				break
			}
		}
	}
	return nil
}

// implementsAccess reports whether T or *T implements the Access
// interface.
func implementsAccess(t types.Type, access *types.Interface) bool {
	return types.Implements(t, access) || types.Implements(types.NewPointer(t), access)
}

// accessLike reports whether a field of type t holds (directly, via
// pointer, or via slice/array/map element) a value that satisfies
// oracle.Access.
func accessLike(t types.Type, access *types.Interface) bool {
	switch u := t.Underlying().(type) {
	case *types.Interface:
		return types.Implements(u, access) || u == access
	case *types.Pointer:
		return accessLike(u.Elem(), access)
	case *types.Slice:
		return accessLike(u.Elem(), access)
	case *types.Array:
		return accessLike(u.Elem(), access)
	case *types.Map:
		return accessLike(u.Elem(), access)
	default:
		return implementsAccess(t, access)
	}
}
