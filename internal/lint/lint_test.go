package lint_test

import (
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
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

// TestRepoIsClean is `make lint`'s analyzer pass: the suite over the real
// module must report nothing — every sanctioned exception carries its
// allow annotation, and every allow is used.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	walkModule(t, "../..")
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

// walkModule lists every directory of the module through the os package.
// `go list` runs as a subprocess, so go test does not see which files it
// read and would key its cached result on the fixtures alone: a file added
// to, changed in or removed from a package would still print "(cached)".
// go test records the directories a test reads, with each entry's size
// and modification time, so this walk makes any such edit re-run the
// test. It skips what `./...` skips: dot and underscore directories (.git,
// .bench_build), testdata and nested modules (bench).
func walkModule(t *testing.T, root string) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == root {
			return err
		}
		name := d.Name()
		if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			return filepath.SkipDir
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// checkSeeded type-checks the real package path with one more file, src,
// written to a temporary directory, and runs the whole suite over it; no
// file in the tree is touched.
func checkSeeded(t *testing.T, path, src string) []analysis.Diagnostic {
	t.Helper()
	listed, err := analysis.GoList("../..", path)
	if err != nil {
		t.Fatal(err)
	}
	exports := make(map[string]string, len(listed))
	var target *analysis.ListedPackage
	for _, p := range listed {
		exports[p.ImportPath] = p.Export
		if p.ImportPath == path {
			target = p
		}
	}
	if target == nil || target.Module == nil {
		t.Fatalf("go list did not report module package %s", path)
	}
	names := make([]string, 0, len(target.GoFiles)+1)
	for _, f := range target.GoFiles {
		names = append(names, filepath.Join(target.Dir, f))
	}
	seed := filepath.Join(t.TempDir(), "zz_seeded.go")
	if err := os.WriteFile(seed, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	names = append(names, seed)

	fset := token.NewFileSet()
	imp := analysis.NewImporter(fset, func(path string) (string, bool) {
		f, ok := exports[path]
		return f, ok
	})
	pkg, err := analysis.TypeCheck(fset, path, target.Module.GoVersion, names, imp)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Check(pkg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if d.Pos.Filename != seed {
			t.Errorf("finding outside the seeded file: %s", d)
		}
	}
	return diags
}

// wantOneFinding fails unless diags is exactly one finding of analyzer
// whose message contains substr.
func wantOneFinding(t *testing.T, diags []analysis.Diagnostic, analyzer, substr string) {
	t.Helper()
	if len(diags) != 1 || diags[0].Analyzer != analyzer || !strings.Contains(diags[0].Message, substr) {
		t.Errorf("want one [%s] finding containing %q, got %d:", analyzer, substr, len(diags))
		for _, d := range diags {
			t.Logf("  %s", d)
		}
	}
}

// TestSeededWallClockFails adds a wall-clock read to repro/internal/sim:
// the suite over the real package must report it.
func TestSeededWallClockFails(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a real package")
	}
	src := "package sim\n\nimport \"time\"\n\nfunc zzSeededViolation() time.Time { return time.Now() }\n"
	wantOneFinding(t, checkSeeded(t, "repro/internal/sim", src), "detrand", "wall-clock time.Now")
}

// TestSeededLockedIOFails adds to repro/internal/fleet a function that
// reaches file I/O through a callee while a mutex is held: the suite over
// the real package must report it, naming the callee, so the call-graph
// engine runs on a real package and not only on the fixture.
func TestSeededLockedIOFails(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a real package")
	}
	src := `package fleet

import (
	"os"
	"sync"
)

var zzMu sync.Mutex

func zzPublish() error { return os.WriteFile("zz", nil, 0o644) }

func zzLockioViolation() error {
	zzMu.Lock()
	defer zzMu.Unlock()
	return zzPublish()
}
`
	wantOneFinding(t, checkSeeded(t, "repro/internal/fleet", src), "lockio",
		"I/O call zzPublish (which reaches os.WriteFile) while zzMu is held")
}
