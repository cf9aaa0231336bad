package lint_test

import (
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/analysis/analysistest"
)

// Each fixture directory is one package checked under an "as-if" import
// path, because the analyzers scope themselves by path (detpkgs.go).

func TestDetrand(t *testing.T) {
	analysistest.Run(t, "testdata/detrand", "repro/internal/sim",
		[]*analysis.Analyzer{lint.Detrand}, lint.Names())
}

func TestMaporder(t *testing.T) {
	analysistest.Run(t, "testdata/maporder", "repro/internal/experiment",
		[]*analysis.Analyzer{lint.Maporder}, lint.Names())
}

func TestHotalloc(t *testing.T) {
	analysistest.Run(t, "testdata/hotalloc", "repro/internal/p2p",
		[]*analysis.Analyzer{lint.Hotalloc}, lint.Names())
}

func TestLockio(t *testing.T) {
	analysistest.Run(t, "testdata/lockio", "repro/internal/fleet",
		[]*analysis.Analyzer{lint.Lockio}, lint.Names())
}

func TestSeedflow(t *testing.T) {
	analysistest.Run(t, "testdata/seedflow", "repro/internal/experiment",
		[]*analysis.Analyzer{lint.Seedflow}, lint.Names())
}

func TestHookcost(t *testing.T) {
	analysistest.Run(t, "testdata/hookcost", "repro/internal/measure",
		[]*analysis.Analyzer{lint.Hookcost}, lint.Names())
}

func TestCtxpoll(t *testing.T) {
	analysistest.Run(t, "testdata/ctxpoll", "repro/internal/chain",
		[]*analysis.Analyzer{lint.Ctxpoll}, lint.Names())
}

// TestOutOfScope runs the full suite over a fixture that breaks every
// rule but claims an import path outside all analyzer scopes: the suite
// must stay silent.
func TestOutOfScope(t *testing.T) {
	diags := analysistest.Run(t, "testdata/outofscope", "repro/cmd/bcbpt-sim",
		lint.Analyzers(), lint.Names())
	if len(diags) != 0 {
		t.Errorf("out-of-scope fixture produced %d diagnostics", len(diags))
	}
}

// TestDirectives checks //bcbptlint:allow handling programmatically: a
// want comment cannot share a line with a directive (they would merge
// into one comment), so the expected set is asserted here instead.
func TestDirectives(t *testing.T) {
	pkg := analysistest.Load(t, "testdata/directives", "repro/internal/sim")
	diags, err := analysis.Run(pkg, lint.Analyzers(), lint.Names())
	if err != nil {
		t.Fatal(err)
	}
	wants := []struct {
		analyzer, substr string
	}{
		// missingReason: the malformed directive suppresses nothing, so
		// both the underlying finding and the directive problem report.
		{"detrand", "wall-clock time.Now"},
		{"bcbptlint", "needs a reason"},
		// unknownAnalyzer: likewise.
		{"detrand", "wall-clock time.Now"},
		{"bcbptlint", "unknown analyzer detrnd"},
		// unusedAllow and unknownVerb.
		{"bcbptlint", "unused //bcbptlint:allow detrand"},
		{"bcbptlint", "unknown bcbptlint directive deny"},
	}
	if len(diags) != len(wants) {
		t.Errorf("got %d diagnostics, want %d:", len(diags), len(wants))
		for _, d := range diags {
			t.Logf("  %s", d)
		}
	}
	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if !matched[i] && d.Analyzer == w.analyzer && strings.Contains(d.Message, w.substr) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing [%s] diagnostic containing %q", w.analyzer, w.substr)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

// TestRepoIsClean is the in-process version of `make lint`: the suite
// over the real module must report nothing — every sanctioned exception
// carries its allow annotation, and every allow is used.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	pkgs, err := analysis.LoadPatterns("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages — pattern resolution broke", len(pkgs))
	}
	for _, pkg := range pkgs {
		diags, err := lint.Check(pkg)
		if err != nil {
			t.Fatalf("%s: %v", pkg.Path, err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}
