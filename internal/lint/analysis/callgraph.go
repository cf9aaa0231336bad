package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// Package-local interprocedural machinery: a static call graph over the
// package's declared functions and a backward description-propagating
// fixpoint, which lockio uses to propagate I/O descriptions backward to
// call sites. The graph is deliberately conservative and package-local —
// calls through function values, interface methods, and other packages
// are not edges; analyzers that need cross-package facts classify the
// call site directly instead.

// Callee resolves a call expression to the *types.Func it statically
// invokes (package function or method), or nil for builtins, type
// conversions, and calls through function-typed values.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// CallGraph is the static, package-local call graph of one checked
// package: one node per declared function or method in a lintable file,
// one edge per syntactic call that resolves to another declared function
// of the same package.
type CallGraph struct {
	info *types.Info

	// decls holds every declared function in source order — fixpoints
	// iterate it so diagnostics and descriptions are deterministic.
	decls []*ast.FuncDecl
	// DeclOf maps a package function to its declaration (nil for
	// functions without bodies).
	DeclOf map[*types.Func]*ast.FuncDecl
	// fnOf is the inverse of DeclOf.
	fnOf map[*ast.FuncDecl]*types.Func
}

// NewCallGraph builds the call graph over pass's lintable files. Calls
// inside `go` statements and non-invoked function literals are NOT edges:
// the walk models work performed on the caller's stack, which is what
// lexical critical-section analyses need.
func NewCallGraph(pass *Pass) *CallGraph {
	g := &CallGraph{
		info:   pass.TypesInfo(),
		DeclOf: map[*types.Func]*ast.FuncDecl{},
		fnOf:   map[*ast.FuncDecl]*types.Func{},
	}
	for _, f := range pass.Files() {
		if !pass.Lintable(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := g.info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.decls = append(g.decls, fd)
			g.DeclOf[fn] = fd
			g.fnOf[fd] = fn
		}
	}
	sort.Slice(g.decls, func(i, j int) bool { return g.decls[i].Pos() < g.decls[j].Pos() })
	return g
}

// Funcs returns every declared function in source order.
func (g *CallGraph) Funcs() []*ast.FuncDecl { return g.decls }

// walkCalls visits every call expression in body that the graph's edge
// semantics include, in source order.
func (g *CallGraph) walkCalls(body *ast.BlockStmt, visit func(*ast.CallExpr) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			return visit(n)
		}
		return true
	})
}

// Reaches computes, for every declared function, a description of the
// first call (in source order) that either classifies directly via
// direct(call) or invokes a same-package function already known to
// reach one, iterating to a fixpoint. This is the backward propagation
// lockio uses: direct classifies "os.Rename" at its call site, and the
// fixpoint labels every transitive caller with "f (which reaches
// os.Rename)". Functions that reach nothing are absent from the result.
func (g *CallGraph) Reaches(direct func(call *ast.CallExpr) string) map[*types.Func]string {
	reaches := map[*types.Func]string{}
	for changed := true; changed; {
		changed = false
		for _, fd := range g.decls {
			fn := g.fnOf[fd]
			if _, done := reaches[fn]; done {
				continue
			}
			what := g.describeFirst(fd.Body, direct, reaches)
			if what != "" {
				reaches[fn] = what
				changed = true
			}
		}
	}
	return reaches
}

// describeFirst returns the description of the first classifying call in
// body under the graph's edge semantics, or "".
func (g *CallGraph) describeFirst(body *ast.BlockStmt, direct func(*ast.CallExpr) string, reaches map[*types.Func]string) string {
	what := ""
	g.walkCalls(body, func(call *ast.CallExpr) bool {
		if what != "" {
			return false
		}
		what = g.Describe(call, direct, reaches)
		return what == ""
	})
	return what
}

// Describe classifies one call site: direct(call) if non-empty, else
// "callee (which reaches <desc>)" for a same-package callee present in
// reaches, else "".
func (g *CallGraph) Describe(call *ast.CallExpr, direct func(*ast.CallExpr) string, reaches map[*types.Func]string) string {
	if what := direct(call); what != "" {
		return what
	}
	fn := Callee(g.info, call)
	if fn == nil {
		return ""
	}
	if _, local := g.DeclOf[fn]; local {
		if what, ok := reaches[fn]; ok {
			return fn.Name() + " (which reaches " + what + ")"
		}
	}
	return ""
}
