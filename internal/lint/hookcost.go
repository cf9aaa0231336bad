package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// Hookcost enforces the telemetry layer's zero-perturbation contract at
// every obs hook call site in the hot-path packages (hookCostPkgs):
// calls to obs.Shard.Record and calls through `On<Name>` func-typed
// struct fields must be
//
//   - nil-guarded: the receiver/callee expression must be checked
//     against nil on the path to the call (`if x.trace != nil { ... }`,
//     `if tr := x.trace; tr != nil { ... }`, or an early `if x == nil {
//     return }`), or be a local bound from (*obs.Tracer).Shard — which
//     returns a valid shard by contract; and
//   - allocation-free in its arguments: no function literals (closure
//     captures), no fmt calls, no string concatenation, no
//     slice/map/pointer composite literals, no append, and no
//     string(bytes) conversions. Plain struct literals (obs.Event{...})
//     and scalar conversions stay on the stack and are the sanctioned
//     form.
//
// The PR 9 bench-parity gates catch a violation dynamically as an
// allocs/op diff; this analyzer names the exact call site instead.
var Hookcost = &analysis.Analyzer{
	Name: "hookcost",
	Doc: "require obs hook call sites (Shard.Record, On* func fields) to be nil-guarded and " +
		"allocation-free in hot-path packages",
	Run: runHookcost,
}

func runHookcost(pass *analysis.Pass) error {
	if !hookCostPkgs[pass.Path()] {
		return nil
	}
	info := pass.TypesInfo()
	lintableFuncs(pass, func(fd *ast.FuncDecl) {
		w := &guardWalker{pass: pass, info: info}
		w.walkStmts(fd.Body.List, map[string]bool{})
	})
	return nil
}

// guardWalker walks a function body threading the set of expression
// texts known non-nil on the current path.
type guardWalker struct {
	pass *analysis.Pass
	info *types.Info
}

func (w *guardWalker) walkStmts(stmts []ast.Stmt, nn map[string]bool) map[string]bool {
	for _, s := range stmts {
		nn = w.walkStmt(s, nn)
	}
	return nn
}

func copyGuards(nn map[string]bool) map[string]bool {
	out := make(map[string]bool, len(nn))
	for k, v := range nn {
		out[k] = v
	}
	return out
}

func (w *guardWalker) walkStmt(s ast.Stmt, nn map[string]bool) map[string]bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.checkExpr(s.X, nn)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.checkExpr(e, nn)
		}
		if len(s.Lhs) == len(s.Rhs) {
			for i, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if w.nonNilExpr(s.Rhs[i], nn) {
					nn = copyGuards(nn)
					nn[id.Name] = true
				} else if nn[id.Name] {
					nn = copyGuards(nn)
					delete(nn, id.Name)
				}
			}
		}
	case *ast.DeferStmt:
		w.checkExpr(s.Call, nn)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.checkExpr(e, nn)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			nn = w.walkStmt(s.Init, copyGuards(nn))
		}
		w.checkExpr(s.Cond, nn)
		thenNN := copyGuards(nn)
		for _, g := range nilCheckedConjuncts(s.Cond) {
			thenNN[g] = true
		}
		w.walkStmts(s.Body.List, thenNN)
		if s.Else != nil {
			w.walkStmt(s.Else, copyGuards(nn))
		}
		// `if g == nil { return }`: g is non-nil for the rest of the
		// enclosing block.
		if g, ok := nilEqCheck(s.Cond); ok && terminates(s.Body) {
			nn = copyGuards(nn)
			nn[g] = true
		}
	case *ast.BlockStmt:
		w.walkStmts(s.List, copyGuards(nn))
	case *ast.ForStmt:
		inner := copyGuards(nn)
		if s.Init != nil {
			inner = w.walkStmt(s.Init, inner)
		}
		if s.Cond != nil {
			w.checkExpr(s.Cond, inner)
		}
		w.walkStmts(s.Body.List, inner)
	case *ast.RangeStmt:
		w.checkExpr(s.X, nn)
		w.walkStmts(s.Body.List, copyGuards(nn))
	case *ast.SwitchStmt:
		inner := copyGuards(nn)
		if s.Init != nil {
			inner = w.walkStmt(s.Init, inner)
		}
		if s.Tag != nil {
			w.checkExpr(s.Tag, inner)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body, copyGuards(inner))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body, copyGuards(nn))
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.walkStmts(cc.Body, copyGuards(nn))
			}
		}
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, nn)
	case *ast.GoStmt:
		w.checkExpr(s.Call, copyGuards(nn))
	case *ast.SendStmt:
		w.checkExpr(s.Chan, nn)
		w.checkExpr(s.Value, nn)
	case *ast.IncDecStmt:
		w.checkExpr(s.X, nn)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.checkExpr(v, nn)
					}
				}
			}
		}
	}
	return nn
}

// nonNilExpr reports whether e is known non-nil: its text is already
// guarded, or it is a (*obs.Tracer).Shard call — non-nil by contract.
func (w *guardWalker) nonNilExpr(e ast.Expr, nn map[string]bool) bool {
	e = ast.Unparen(e)
	if nn[types.ExprString(e)] {
		return true
	}
	if call, ok := e.(*ast.CallExpr); ok {
		fn := calleeFunc(w.info, call)
		if isMethodOn(fn, modulePath+"/internal/obs", "Tracer", "Shard") {
			return true
		}
	}
	return false
}

// nilCheckedConjuncts extracts the guarded expression texts from a
// condition: every `X != nil` conjunct of a && chain.
func nilCheckedConjuncts(cond ast.Expr) []string {
	var out []string
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		b, ok := ast.Unparen(e).(*ast.BinaryExpr)
		if !ok {
			return
		}
		switch b.Op {
		case token.LAND:
			walk(b.X)
			walk(b.Y)
		case token.NEQ:
			if isNilLiteral(b.Y) {
				out = append(out, types.ExprString(ast.Unparen(b.X)))
			} else if isNilLiteral(b.X) {
				out = append(out, types.ExprString(ast.Unparen(b.Y)))
			}
		}
	}
	walk(cond)
	return out
}

// nilEqCheck recognizes a bare `X == nil` condition, returning X's text.
func nilEqCheck(cond ast.Expr) (string, bool) {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || b.Op != token.EQL {
		return "", false
	}
	if isNilLiteral(b.Y) {
		return types.ExprString(ast.Unparen(b.X)), true
	}
	if isNilLiteral(b.X) {
		return types.ExprString(ast.Unparen(b.Y)), true
	}
	return "", false
}

func isNilLiteral(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// checkExpr scans an expression for hook call sites, descending into
// function literals with the current guard set (captured guard facts
// hold as long as the captured variable is not reassigned, which the
// assignment case invalidates).
func (w *guardWalker) checkExpr(e ast.Expr, nn map[string]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		guardExpr, site, isHook := w.hookSite(call)
		if !isHook {
			return true
		}
		if !nn[guardExpr] && !w.nonNilExpr(mustExpr(call, guardExpr), nn) {
			w.pass.Reportf(call.Pos(),
				"%s call is not nil-guarded: wrap it in `if %s != nil { ... }` (or bind from Tracer.Shard)",
				site, guardExpr)
		}
		for _, arg := range call.Args {
			w.checkHookArg(site, arg)
		}
		return true
	})
}

// mustExpr re-derives the guard expression node for nonNilExpr's
// Shard-contract test: for Record calls it is the receiver, for hook
// fields the callee itself.
func mustExpr(call *ast.CallExpr, guardText string) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if types.ExprString(ast.Unparen(sel.X)) == guardText {
			return sel.X
		}
	}
	return call.Fun
}

// hookSite classifies call as an obs hook site, returning the expression
// text whose nil-ness gates the call and a printable site name.
func (w *guardWalker) hookSite(call *ast.CallExpr) (guardExpr, site string, ok bool) {
	fun := ast.Unparen(call.Fun)
	sel, isSel := fun.(*ast.SelectorExpr)
	if !isSel {
		// Calls through a bare identifier: a hook field copied into a
		// local (`f := n.OnX; f(...)`). Treat the identifier as the
		// guard expression when it is a func-typed On* variable.
		if id, isIdent := fun.(*ast.Ident); isIdent {
			if v, isVar := w.info.Uses[id].(*types.Var); isVar && isHookFieldName(id.Name) {
				if _, isSig := v.Type().Underlying().(*types.Signature); isSig {
					return id.Name, "hook " + id.Name, true
				}
			}
		}
		return "", "", false
	}
	// obs.Shard.Record method call.
	if fn, _ := w.info.Uses[sel.Sel].(*types.Func); fn != nil {
		if isMethodOn(fn, modulePath+"/internal/obs", "Shard", "Record") {
			return types.ExprString(ast.Unparen(sel.X)), "obs.Shard.Record", true
		}
		return "", "", false
	}
	// Call through a func-typed On* struct field.
	if v, isVar := w.info.Uses[sel.Sel].(*types.Var); isVar && v.IsField() && isHookFieldName(sel.Sel.Name) {
		if _, isSig := v.Type().Underlying().(*types.Signature); isSig {
			return types.ExprString(fun), "hook " + sel.Sel.Name, true
		}
	}
	return "", "", false
}

// isHookFieldName reports whether name follows the On<Event> hook
// convention.
func isHookFieldName(name string) bool {
	return len(name) > 2 && name[:2] == "On" && name[2] >= 'A' && name[2] <= 'Z'
}

// checkHookArg flags allocating argument shapes.
func (w *guardWalker) checkHookArg(site string, arg ast.Expr) {
	ast.Inspect(arg, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.pass.Reportf(n.Pos(), "%s argument allocates: function literal (closure) — pass scalars instead", site)
			return false
		case *ast.CallExpr:
			fn := calleeFunc(w.info, n)
			if fn != nil && funcPkgPath(fn) == "fmt" {
				w.pass.Reportf(n.Pos(), "%s argument allocates: fmt.%s — record scalar fields instead", site, fn.Name())
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := w.info.Uses[id].(*types.Builtin); isBuiltin {
					w.pass.Reportf(n.Pos(), "%s argument allocates: append", site)
				}
			}
			if tv, ok := w.info.Types[n.Fun]; ok && tv.IsType() && len(n.Args) == 1 {
				if isStringConv(w.info, n) {
					w.pass.Reportf(n.Pos(), "%s argument allocates: string conversion copies — record a prefix/hash instead", site)
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(w.info, n.X) {
				w.pass.Reportf(n.Pos(), "%s argument allocates: string concatenation — record scalar fields instead", site)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, isComposite := ast.Unparen(n.X).(*ast.CompositeLit); isComposite {
					w.pass.Reportf(n.Pos(), "%s argument allocates: pointer to composite literal escapes", site)
					return false
				}
			}
		case *ast.CompositeLit:
			if tv, ok := w.info.Types[n]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					w.pass.Reportf(n.Pos(), "%s argument allocates: slice/map literal — record scalar fields instead", site)
					return false
				}
			}
		}
		return true
	})
}

// isStringConv reports whether call is a string([]byte) / string([]rune)
// conversion.
func isStringConv(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil || !isString(tv.Type) {
		return false
	}
	at, ok := info.Types[call.Args[0]]
	if !ok || at.Type == nil {
		return false
	}
	_, isSlice := at.Type.Underlying().(*types.Slice)
	return isSlice
}

func isStringType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Type != nil && isString(tv.Type)
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// terminates reports whether a block always transfers control out
// (return, branch, or panic as its final statement).
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}
