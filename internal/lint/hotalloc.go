package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Hotalloc flags heap-allocating constructs in hot functions. The
// ROADMAP's million-QPS item and the paper's cost model agree on why:
// in the LCA setting memory is the scarce resource (the
// space-efficient LCA line of work prices algorithms by probes AND
// space), and on the serving side the cached-hit budget is zero heap
// allocations per query — one stray interface boxing or closure
// capture turns a ~70ns hit into a GC-visible one. Hotness comes from
// the shared call graph (hot roots in hotroots.go, //lint:hotroot in
// testdata and future code); strict query-level functions are checked
// everywhere, derive-level functions only inside loops (setup
// allocations amortize over the run, per-iteration ones multiply by
// the O~(1/ε⁵) sample count).
//
// Flagged constructs: make/new, address-of composite literals, slice
// and map literals, append in loops without visible preallocation,
// string concatenation and string<->[]byte conversions, fmt calls,
// interface boxing at call sites, and capturing closures. Blocks that
// terminate by returning a non-nil error (or by tail-calling a
// //lint:coldpath function) are cold and exempt: error exits are off
// the steady-state path by definition.
//
// A finding is waived by a //lint:alloc comment on (or directly
// above) the line, carrying a justification — typically "measured 0
// allocs/op" (escape analysis keeps it on the stack), "miss path", or
// "escapes to caller". ALLOC_BUDGET.json is the ground truth the
// waivers answer to: the -allocbudget harness re-measures the pinned
// benchmarks, so a wrong waiver fails CI anyway.
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc: "flag heap-allocating constructs in functions reachable from the hot-path roots; " +
		"waive with //lint:alloc <justification>, verify with cmd/lcalint -allocbudget",
	Run: runHotalloc,
}

// runHotalloc checks every hot function of the pass.
func runHotalloc(pass *Pass) error {
	if td, scoped := testdataScoped(scopePath(pass.Path()), "hotalloc"); td && !scoped {
		return nil
	}
	if pass.Graph == nil {
		return nil
	}
	waivers := newWaiverIndex(pass.Fset, pass.Files)
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			lvl := pass.Graph.Hotness(typesFuncKey(fn))
			if lvl == hotNone {
				continue
			}
			w := &hotWalker{pass: pass, fd: fd, lvl: lvl, waivers: waivers}
			w.cold = coldRanges(pass, fd.Body)
			w.walk()
		}
	}
	return nil
}

// posRange is a half-open source region.
type posRange struct {
	pos, end token.Pos
}

// contains reports whether p lies in the range.
func (r posRange) contains(p token.Pos) bool { return r.pos <= p && p < r.end }

// coldRanges finds the error-exit regions of a function body: if /
// case / select-comm blocks whose statement list terminates by
// returning a non-nil error, tail-calling a //lint:coldpath function,
// or panicking — plus error-guarded blocks that bail out of a loop.
// Allocations there run at most once per failure, not per query.
func coldRanges(pass *Pass, body *ast.BlockStmt) []posRange {
	var cold []posRange
	add := func(stmts []ast.Stmt) {
		if len(stmts) == 0 {
			return
		}
		cold = append(cold, posRange{pos: stmts[0].Pos(), end: stmts[len(stmts)-1].End()})
	}
	// A function whose body's final statement is an error return is an
	// error-exit there too (the `return fmt.Errorf(...)` after the
	// early `return nil` shape); only the final statement is cold, not
	// the straight-line code before it.
	if n := len(body.List); n > 0 && endsCold(pass, body.List) {
		add(body.List[n-1:])
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if endsCold(pass, n.Body.List) ||
				(endsInBranch(n.Body.List) && condInvolvesError(pass, n.Cond)) {
				add(n.Body.List)
			}
			if alt, ok := n.Else.(*ast.BlockStmt); ok && endsCold(pass, alt.List) {
				add(alt.List)
			}
		case *ast.CaseClause:
			if endsCold(pass, n.Body) {
				add(n.Body)
			}
		case *ast.CommClause:
			if endsCold(pass, n.Body) {
				add(n.Body)
			}
		}
		return true
	})
	return cold
}

// endsCold reports whether a statement list terminates off the hot
// path: a return whose final result is a non-nil error value, a
// return tail-calling a coldpath-marked function, or a panic.
func endsCold(pass *Pass, stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt:
		if len(last.Results) == 0 {
			return false
		}
		final := ast.Unparen(last.Results[len(last.Results)-1])
		if id, ok := final.(*ast.Ident); ok && id.Name == "nil" {
			return false
		}
		if call, ok := final.(*ast.CallExpr); ok && pass.Graph != nil {
			fn := calleeTypesFunc(pass.TypesInfo, call)
			if pass.Graph.IsColdpath(typesFuncKey(fn)) {
				return true
			}
		}
		if tv, ok := pass.TypesInfo.Types[last.Results[len(last.Results)-1]]; ok && tv.Type != nil {
			return isErrorValued(tv.Type)
		}
		return false
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

// endsInBranch reports whether the list ends with continue or break.
func endsInBranch(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	br, ok := stmts[len(stmts)-1].(*ast.BranchStmt)
	return ok && (br.Tok == token.CONTINUE || br.Tok == token.BREAK)
}

// condInvolvesError reports whether the condition reads an
// error-typed value (the `if err != nil` family).
func condInvolvesError(pass *Pass, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Type != nil && isErrorValued(tv.Type) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// hotWalker reports allocation constructs in one hot function.
type hotWalker struct {
	pass    *Pass
	fd      *ast.FuncDecl
	lvl     hotLevel
	waivers *waiverIndex
	cold    []posRange

	stack []ast.Node
}

// walk traverses the function body maintaining the enclosing-node
// stack (for loop depth and literal parents).
func (w *hotWalker) walk() {
	ast.Inspect(w.fd.Body, func(n ast.Node) bool {
		if n == nil {
			w.stack = w.stack[:len(w.stack)-1]
			return true
		}
		w.stack = append(w.stack, n)
		w.visit(n)
		return true
	})
}

// loopDepth counts the loops enclosing the current node up to the
// nearest function literal: code inside a closure only counts the
// closure's own loops.
func (w *hotWalker) loopDepth() int {
	depth := 0
	for i := len(w.stack) - 2; i >= 0; i-- {
		switch w.stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			depth++
		case *ast.FuncLit:
			return depth
		}
	}
	return depth
}

// parent returns the immediate enclosing node.
func (w *hotWalker) parent() ast.Node {
	if len(w.stack) < 2 {
		return nil
	}
	return w.stack[len(w.stack)-2]
}

// isCold reports whether pos lies in an error-exit region.
func (w *hotWalker) isCold(pos token.Pos) bool {
	for _, r := range w.cold {
		if r.contains(pos) {
			return true
		}
	}
	return false
}

// report emits one finding unless it is cold, below the derive-level
// loop bar, or waived.
func (w *hotWalker) report(pos token.Pos, format string, args ...any) {
	if w.isCold(pos) {
		return
	}
	if w.lvl == hotDerive && w.loopDepth() == 0 {
		return
	}
	if w.waivers.waive(w.pass, "alloc", pos) {
		return
	}
	args = append([]any{w.lvl}, args...)
	w.pass.Reportf(pos, "hot path (%s): "+format, args...)
}

// visit dispatches one node.
func (w *hotWalker) visit(n ast.Node) {
	switch n := n.(type) {
	case *ast.CallExpr:
		w.visitCall(n)
	case *ast.CompositeLit:
		w.visitComposite(n)
	case *ast.BinaryExpr:
		if n.Op == token.ADD && w.isStringOp(n) {
			w.report(n.OpPos, "string concatenation allocates per call")
		}
	case *ast.AssignStmt:
		if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && w.isStringOp(n.Lhs[0]) {
			w.report(n.TokPos, "string concatenation allocates per call")
		}
	case *ast.FuncLit:
		if captured := w.captures(n); len(captured) > 0 {
			w.report(n.Pos(), "closure captures %s and allocates when it escapes",
				strings.Join(captured, ", "))
		}
	}
}

// isStringOp reports whether the expression has static string type
// and is not a compile-time constant.
func (w *hotWalker) isStringOp(e ast.Expr) bool {
	tv, ok := w.pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil || tv.Value != nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// visitCall checks make/new, append-in-loop, fmt, string/[]byte
// conversions, and interface boxing at argument positions.
func (w *hotWalker) visitCall(call *ast.CallExpr) {
	// Builtin make/new.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := w.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				w.report(call.Pos(), "%s allocates; preallocate or pool the buffer", b.Name())
			case "append":
				if w.loopDepth() > 0 && !w.hasPrealloc(call) {
					w.report(call.Pos(), "append in a loop without preallocated capacity grows the backing array")
				}
			}
			return
		}
	}

	// Conversions: string<->[]byte copy their operand.
	if tv, ok := w.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, w.pass.TypesInfo.Types[call.Args[0]].Type
		if from != nil && ((isStringType(to) && isByteSlice(from)) || (isByteSlice(to) && isStringType(from))) {
			// A constant operand folds at compile time.
			if w.pass.TypesInfo.Types[call.Args[0]].Value == nil {
				w.report(call.Pos(), "%s conversion copies its operand", types.TypeString(to, nil))
			}
		}
		return
	}

	fn := calleeTypesFunc(w.pass.TypesInfo, call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		w.report(call.Pos(), "fmt.%s allocates on the query path", fn.Name())
		return
	}

	// Interface boxing at argument positions.
	sig := w.callSignature(call, fn)
	if sig == nil {
		return
	}
	for i, arg := range call.Args {
		param := paramAt(sig, i)
		if param == nil {
			break
		}
		if !types.IsInterface(param.Underlying()) {
			continue
		}
		atv, ok := w.pass.TypesInfo.Types[arg]
		if !ok || atv.Type == nil || atv.Value != nil || types.IsInterface(atv.Type.Underlying()) {
			continue
		}
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok && id.Name == "nil" {
			continue
		}
		// Pointer-shaped values live directly in the interface's data
		// word; storing them boxes nothing.
		if zeroSized(atv.Type) || pointerShaped(atv.Type) {
			continue
		}
		w.report(arg.Pos(), "passing %s boxes it into %s (heap allocation)",
			types.TypeString(atv.Type, relativeTo(w.pass.Pkg)), types.TypeString(param, relativeTo(w.pass.Pkg)))
	}
}

// callSignature resolves a call's signature from the callee function
// or, for func values, from the expression type.
func (w *hotWalker) callSignature(call *ast.CallExpr, fn *types.Func) *types.Signature {
	if fn != nil {
		sig, _ := fn.Type().(*types.Signature)
		return sig
	}
	tv, ok := w.pass.TypesInfo.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// paramAt returns the declared type of argument i, expanding the
// variadic tail.
func paramAt(sig *types.Signature, i int) types.Type {
	params := sig.Params()
	if params.Len() == 0 {
		return nil
	}
	if sig.Variadic() && i >= params.Len()-1 {
		slice, ok := params.At(params.Len() - 1).Type().(*types.Slice)
		if !ok {
			return nil
		}
		return slice.Elem()
	}
	if i >= params.Len() {
		return nil
	}
	return params.At(i).Type()
}

// visitComposite flags composite literals whose backing store is
// heap-bound: slice and map literals always allocate their store;
// &T{} allocates when it escapes. A plain struct value literal is
// left alone — it has value semantics and normally stays on the
// stack.
func (w *hotWalker) visitComposite(lit *ast.CompositeLit) {
	tv, ok := w.pass.TypesInfo.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	if u, ok := w.parent().(*ast.UnaryExpr); ok && u.Op == token.AND {
		w.report(u.Pos(), "&%s literal allocates when it escapes",
			types.TypeString(tv.Type, relativeTo(w.pass.Pkg)))
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		w.report(lit.Pos(), "slice literal allocates its backing array")
	case *types.Map:
		w.report(lit.Pos(), "map literal allocates")
	}
}

// captures lists the enclosing function's variables a literal closes
// over (receiver, parameters, locals — not package-level state, which
// needs no capture cell).
func (w *hotWalker) captures(lit *ast.FuncLit) []string {
	var names []string
	seen := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := w.pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || seen[v] || v.IsField() {
			return true
		}
		// Captured = declared inside the enclosing declaration but
		// outside this literal, and not at package scope.
		if v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true
		}
		if v.Pos() >= w.fd.Pos() && v.Pos() < w.fd.End() && (v.Pos() < lit.Pos() || v.Pos() >= lit.End()) {
			seen[v] = true
			names = append(names, v.Name())
		}
		return true
	})
	return names
}

// hasPrealloc looks for visible capacity evidence for the append
// destination earlier in the function: a make with explicit length or
// capacity, or a [:0]-style reslice of a reusable buffer.
func (w *hotWalker) hasPrealloc(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	target := types.ExprString(ast.Unparen(call.Args[0]))
	found := false
	ast.Inspect(w.fd.Body, func(n ast.Node) bool {
		if found || n == nil || n.Pos() >= call.Pos() {
			return !found
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			if types.ExprString(ast.Unparen(lhs)) != target {
				continue
			}
			var rhs ast.Expr
			switch {
			case len(as.Rhs) == len(as.Lhs):
				rhs = as.Rhs[i]
			case len(as.Rhs) == 1:
				rhs = as.Rhs[0]
			default:
				continue
			}
			switch r := ast.Unparen(rhs).(type) {
			case *ast.CallExpr:
				if id, ok := ast.Unparen(r.Fun).(*ast.Ident); ok {
					if b, ok := w.pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "make" && len(r.Args) >= 2 {
						found = true
					}
				}
			case *ast.SliceExpr:
				if isZeroLit(r.High) && r.Low == nil {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// isZeroLit reports whether e is the literal 0.
func isZeroLit(e ast.Expr) bool {
	bl, ok := e.(*ast.BasicLit)
	return ok && bl.Value == "0"
}

// isStringType reports whether t's underlying type is string.
func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isByteSlice reports whether t's underlying type is []byte.
func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// zeroSized reports whether values of t occupy no storage (boxing
// them reuses the runtime's shared zero base, no allocation).
func zeroSized(t types.Type) bool {
	return stdSizes.Sizeof(t) == 0
}

// pointerShaped reports whether t is represented as a single pointer
// word (pointer, map, chan, func, unsafe.Pointer): the runtime stores
// such values directly in an interface without a heap box.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// stdSizes approximates gc's layout for the zero-size test; the exact
// word size is irrelevant for sizes that are zero.
var stdSizes = types.StdSizes{WordSize: 8, MaxAlign: 8}

// relativeTo qualifies type names relative to the pass's package.
func relativeTo(pkg *types.Package) types.Qualifier {
	return func(other *types.Package) string {
		if other == pkg {
			return ""
		}
		return other.Name()
	}
}
