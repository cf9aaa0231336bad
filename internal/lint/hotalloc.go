package lint

import (
	"go/ast"

	"repro/internal/lint/analysis"
)

// Hotalloc flags per-event allocation idioms in the flood hot-path
// packages (see hotPathPkgs), everywhere in them — the block relay too,
// which no zero-allocation test runs:
//
//   - closure-form Scheduler.At/After: every call allocates the closure
//     plus its captures. The closure-free form dispatches at 0 allocs/op:
//     AfterIndexed with an index into state the caller keeps by value —
//     what the flood path's messages and probes travel as.
//   - fmt string building (Sprintf/Sprint/Sprintln/Appendf): formats,
//     boxes every operand into an interface, and allocates the result.
//
// Cold paths that legitimately format (debug Stringers, one-time setup)
// annotate the site: //bcbptlint:allow hotalloc — <why this is cold>.
var Hotalloc = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "flag closure-form Scheduler.At/After and fmt string building in flood hot-path packages; " +
		"use AfterIndexed over by-value state, and preallocated buffers",
	Run: runHotalloc,
}

// fmtAllocFuncs allocate a formatted string (and box operands) per
// call. fmt.Errorf is deliberately absent: error construction is a
// failure path, not a hot path.
var fmtAllocFuncs = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true, "Appendf": true,
}

func runHotalloc(pass *analysis.Pass) error {
	if !hotPathPkgs[pass.Path()] {
		return nil
	}
	info := pass.TypesInfo()
	for _, f := range pass.Files() {
		if !pass.Lintable(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.Callee(info, call)
			if fn == nil {
				return true
			}
			switch {
			case isMethodOn(fn, modulePath+"/internal/sim", "Scheduler", "At"),
				isMethodOn(fn, modulePath+"/internal/sim", "Scheduler", "After"):
				pass.Reportf(call.Pos(),
					"closure-form Scheduler.%s allocates per event on the flood hot path: use AfterIndexed over by-value state",
					fn.Name())
			case funcPkgPath(fn) == "fmt" && fmtAllocFuncs[fn.Name()]:
				pass.Reportf(call.Pos(),
					"fmt.%s allocates and boxes on the flood hot path: preformat, reuse a buffer, or annotate the cold path",
					fn.Name())
			}
			return true
		})
	}
	return nil
}
