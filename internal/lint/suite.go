package lint

import "repro/internal/lint/analysis"

// Analyzers returns the full bcbpt-lint suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Detrand, Maporder, Hotalloc, Lockio,
		Seedflow, Hookcost, Ctxpoll,
	}
}

// Names returns every analyzer name valid in a //bcbptlint:allow
// directive.
func Names() []string {
	as := Analyzers()
	names := make([]string, len(as))
	for i, a := range as {
		names[i] = a.Name
	}
	return names
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *analysis.Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Check runs the whole suite over one loaded package.
func Check(pkg *analysis.Package) ([]analysis.Diagnostic, error) {
	return analysis.Run(pkg, Analyzers(), Names())
}
