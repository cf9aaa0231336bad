package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Lexical critical-section tracking, generalized from lockio's original
// in-analyzer walker so any analyzer can ask "which mutexes are held at
// this node". Regions run from <expr>.Lock()/.RLock() to the matching
// .Unlock()/.RUnlock() on a sync.Mutex/RWMutex receiver, with
// `defer <expr>.Unlock()` holding to the end of the function. Nested
// control flow gets a copy of the held set so branch-local releases
// don't leak out, and `go` statement bodies are never visited — they
// run outside the caller's critical section. Function-literal interiors
// ARE visited (with the surrounding held set): whether a deferred or
// stored closure runs inside the region is the analyzer's call, so the
// visitor can discard or keep FuncLit subtrees as its invariant demands.

// HeldLock is one lexically held mutex.
type HeldLock struct {
	Key  string // source text of the receiver expression, e.g. "c.mu"
	Line int    // line of the acquiring call
}

// WalkLockRegions walks body in source order, invoking visit on every
// expression (and declaration statement) that executes on the caller's
// stack, with the set of locks lexically held at that point. Lock and
// unlock calls themselves are transitions, not visited nodes.
func WalkLockRegions(fset *token.FileSet, info *types.Info, body *ast.BlockStmt, visit func(n ast.Node, held []HeldLock)) {
	w := &regionWalker{fset: fset, info: info, visit: visit}
	w.walkStmts(body.List, nil)
}

type regionWalker struct {
	fset  *token.FileSet
	info  *types.Info
	visit func(n ast.Node, held []HeldLock)
}

func (w *regionWalker) see(n ast.Node, held []HeldLock) {
	if n != nil {
		w.visit(n, held)
	}
}

// walkStmts walks a statement list in source order, threading the held
// set through lock/unlock transitions.
func (w *regionWalker) walkStmts(stmts []ast.Stmt, held []HeldLock) []HeldLock {
	for _, s := range stmts {
		held = w.walkStmt(s, held)
	}
	return held
}

func (w *regionWalker) walkStmt(s ast.Stmt, held []HeldLock) []HeldLock {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if key, acquire, ok := lockTransition(w.info, s.X); ok {
			if acquire {
				return append(append([]HeldLock{}, held...), HeldLock{Key: key, Line: w.fset.Position(s.Pos()).Line})
			}
			return releaseLock(held, key)
		}
		w.see(s.X, held)
	case *ast.DeferStmt:
		// defer mu.Unlock() is the canonical release idiom: the lock
		// stays held for the remainder of the walk, which matches the
		// function's actual critical section. Any other deferred call
		// runs before that unlock, so it is still charged to the region.
		if _, acquire, ok := lockTransition(w.info, s.Call); ok && !acquire {
			return held
		}
		w.see(s.Call, held)
	case *ast.AssignStmt:
		for _, e := range s.Lhs {
			w.see(e, held)
		}
		for _, e := range s.Rhs {
			w.see(e, held)
		}
	case *ast.IncDecStmt:
		w.see(s.X, held)
	case *ast.SendStmt:
		w.see(s.Chan, held)
		w.see(s.Value, held)
	case *ast.DeclStmt:
		w.see(s, held)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.see(e, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		w.see(s.Cond, held)
		w.walkStmts(s.Body.List, held)
		if s.Else != nil {
			w.walkStmt(s.Else, held)
		}
	case *ast.BlockStmt:
		held = w.walkStmts(s.List, held)
	case *ast.ForStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			w.see(s.Cond, held)
		}
		w.walkStmts(s.Body.List, held)
	case *ast.RangeStmt:
		w.see(s.X, held)
		w.walkStmts(s.Body.List, held)
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = w.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			w.see(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body, held)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body, held)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.walkStmts(cc.Body, held)
			}
		}
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, held)
	case *ast.GoStmt:
		// Runs on its own goroutine outside this critical section.
	}
	return held
}

// lockTransition recognizes <expr>.Lock/RLock/Unlock/RUnlock() on a
// sync.Mutex or sync.RWMutex receiver, returning the receiver's source
// text and whether the call acquires.
func lockTransition(info *types.Info, e ast.Expr) (key string, acquire, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn {
		return "", false, false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", false, false
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", false, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" || (obj.Name() != "Mutex" && obj.Name() != "RWMutex") {
		return "", false, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return types.ExprString(sel.X), true, true
	case "Unlock", "RUnlock":
		return types.ExprString(sel.X), false, true
	}
	return "", false, false
}

func releaseLock(held []HeldLock, key string) []HeldLock {
	out := make([]HeldLock, 0, len(held))
	for _, h := range held {
		if h.Key != key {
			out = append(out, h)
		}
	}
	return out
}
