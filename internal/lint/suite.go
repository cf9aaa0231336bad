package lint

import "repro/internal/lint/analysis"

// Analyzers returns the full lint suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Detrand, Maporder, Hotalloc, Lockio,
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

// Check runs the whole suite over one loaded package.
func Check(pkg *analysis.Package) ([]analysis.Diagnostic, error) {
	return analysis.Run(pkg, Analyzers(), Names())
}
