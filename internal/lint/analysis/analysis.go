// Package analysis is a minimal, dependency-free sibling of
// golang.org/x/tools/go/analysis: just enough Analyzer/Pass plumbing to
// host this repo's custom lint suite (internal/lint) without pulling a
// module dependency into the build. The repo's invariants — determinism,
// hot-path allocation discipline, lock hygiene — are enforced by
// analyzers written against this API and driven by internal/lint's tests:
// TestRepoIsClean over the module, analysistest over fixtures.
//
// The deliberate differences from x/tools are small: no facts, no
// sub-analyzer dependencies, and suppression via the repo-wide
// `//bcbptlint:allow <analyzer> — <reason>` directive is handled here in
// the framework so every analyzer gets the escape hatch for free.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one invariant checker. Run inspects a fully
// type-checked package through the Pass and reports findings via
// Pass.Reportf; it must be deterministic (no map-order-dependent output —
// the framework sorts diagnostics, but messages must not depend on
// iteration order either).
type Analyzer struct {
	Name string // short lower-case identifier, used in //bcbptlint:allow
	Doc  string // one-paragraph description of what it catches and the sanctioned fix
	Run  func(*Pass) error
}

// Pass carries one type-checked package to one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	report func(rawDiag)
}

// Path returns the import path under analysis.
func (p *Pass) Path() string { return p.Pkg.Path }

// Fset returns the file set positions resolve against.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// Files returns the package syntax. It includes any _test.go file the
// loader was handed; analyzers that walk files themselves should skip
// files where Lintable reports false — diagnostics landing in
// non-lintable files are dropped regardless.
func (p *Pass) Files() []*ast.File { return p.Pkg.Files }

// Lintable reports whether diagnostics in f are in scope (non-test
// files only).
func (p *Pass) Lintable(f *ast.File) bool { return p.Pkg.Lintable[f] }

// TypesInfo returns the type-checker fact tables for the package.
func (p *Pass) TypesInfo() *types.Info { return p.Pkg.Info }

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(rawDiag{pos: pos, analyzer: p.Analyzer.Name, message: fmt.Sprintf(format, args...)})
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path     string // import path, e.g. "repro/internal/sim"
	Fset     *token.FileSet
	Files    []*ast.File
	Types    *types.Package
	Info     *types.Info
	Lintable map[*ast.File]bool // files eligible for diagnostics (non-test)
}

// Diagnostic is one resolved finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

type rawDiag struct {
	pos      token.Pos
	analyzer string
	message  string
}

// Run executes analyzers over pkg and returns position-sorted
// diagnostics. Findings in non-lintable (test) files are dropped; the
// //bcbptlint:allow directives in lintable files then suppress matching
// findings. knownNames is the full registry of analyzer names (possibly
// wider than the analyzers actually run) so a directive naming a
// misspelled analyzer is itself reported; an allow for an analyzer that
// did run but suppressed nothing is reported as unused.
func Run(pkg *Package, analyzers []*Analyzer, knownNames []string) ([]Diagnostic, error) {
	var raw []rawDiag
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Pkg: pkg, report: func(d rawDiag) { raw = append(raw, d) }}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: analyzer %s: %w", pkg.Path, a.Name, err)
		}
	}

	lintableFile := make(map[string]bool, len(pkg.Files))
	for f, ok := range pkg.Lintable {
		if ok {
			lintableFile[pkg.Fset.Position(f.Pos()).Filename] = true
		}
	}

	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	known := make(map[string]bool, len(knownNames))
	for _, n := range knownNames {
		known[n] = true
	}

	allows := collectAllows(pkg, known)

	var diags []Diagnostic
	for _, d := range raw {
		pos := pkg.Fset.Position(d.pos)
		if !lintableFile[pos.Filename] {
			continue
		}
		if suppressed(allows, d.analyzer, pos) {
			continue
		}
		diags = append(diags, Diagnostic{Pos: pos, Analyzer: d.analyzer, Message: d.message})
	}

	for _, a := range allows {
		switch {
		case a.problem != "":
			diags = append(diags, Diagnostic{
				Pos:      pkg.Fset.Position(a.pos),
				Analyzer: DirectiveAnalyzerName,
				Message:  a.problem,
			})
		case ran[a.analyzer] && !a.used:
			diags = append(diags, Diagnostic{
				Pos:      pkg.Fset.Position(a.pos),
				Analyzer: DirectiveAnalyzerName,
				Message: fmt.Sprintf("unused //bcbptlint:allow %s directive: no %s finding on this line or the next",
					a.analyzer, a.analyzer),
			})
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags, nil
}
