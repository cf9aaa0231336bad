package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// ListedPackage is the subset of `go list -json` output the loader
// consumes.
type ListedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Incomplete bool
	Module     *struct {
		Path      string
		GoVersion string
		Main      bool
	}
	Error *struct {
		Err string
	}
}

// GoList runs `go list -e -deps -export -json` in dir over patterns and
// decodes the JSON stream. -export populates build-cache export-data
// paths for every package in the dependency closure, which is what lets
// the type checker resolve imports offline with no dependency on
// golang.org/x/tools.
func GoList(dir string, patterns ...string) ([]*ListedPackage, error) {
	args := append([]string{
		"list", "-e", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,Standard,DepOnly,Incomplete,Module,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %w\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*ListedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p ListedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// NewImporter returns a go/types importer that resolves imports through
// gc export-data files named by lookup (import path → file path, the
// shape of `go list -export` output). "unsafe" resolves to types.Unsafe
// without consulting lookup.
func NewImporter(fset *token.FileSet, lookup func(path string) (string, bool)) types.ImporterFrom {
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := lookup(path)
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return &exportImporter{gc: gc.(types.ImporterFrom)}
}

type exportImporter struct{ gc types.ImporterFrom }

func (e *exportImporter) Import(path string) (*types.Package, error) {
	return e.ImportFrom(path, "", 0)
}

func (e *exportImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return e.gc.ImportFrom(path, dir, mode)
}

var goVersionRx = regexp.MustCompile(`^go1(\.\d+){0,2}$`)

// cleanGoVersion normalizes a module Go version ("1.22", "go1.22",
// "go1.22.3", or garbage) into a value go/types accepts, or "" to let the
// type checker assume the toolchain's language version.
func cleanGoVersion(v string) string {
	if v == "" {
		return ""
	}
	if !strings.HasPrefix(v, "go") {
		v = "go" + v
	}
	if !goVersionRx.MatchString(v) {
		return ""
	}
	return v
}

// TypeCheck parses filenames and type-checks them as one package with
// import path path, filling the full Info tables the analyzers rely on.
// Files named *_test.go are loaded (the package must type-check as the
// compiler saw it) but marked non-lintable.
func TypeCheck(fset *token.FileSet, path, goVersion string, filenames []string, imp types.Importer) (*Package, error) {
	files := make([]*ast.File, 0, len(filenames))
	lintable := make(map[*ast.File]bool, len(filenames))
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		lintable[f] = !strings.HasSuffix(filepath.Base(name), "_test.go")
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Instances:  map[*ast.Ident]types.Instance{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer:  imp,
		GoVersion: cleanGoVersion(goVersion),
		Error:     func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %w", path, errors.Join(typeErrs...))
	}
	return &Package{
		Path:     path,
		Fset:     fset,
		Files:    files,
		Types:    tpkg,
		Info:     info,
		Lintable: lintable,
	}, nil
}

// LoadPatterns loads, parses, and type-checks every module package
// matching the `go list` patterns (dependencies are consumed as export
// data only). Everything runs off the local build cache, no network.
func LoadPatterns(dir string, patterns ...string) ([]*Package, error) {
	listed, err := GoList(dir, patterns...)
	if err != nil {
		return nil, err
	}

	exports := make(map[string]string, len(listed))
	var targets []*ListedPackage
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if !p.DepOnly && !p.Standard && p.Module != nil && p.Module.Main {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := NewImporter(fset, func(path string) (string, bool) {
		f, ok := exports[path]
		return f, ok
	})

	var pkgs []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		goVersion := ""
		if t.Module != nil {
			goVersion = t.Module.GoVersion
		}
		names := make([]string, len(t.GoFiles))
		for i, f := range t.GoFiles {
			names[i] = filepath.Join(t.Dir, f)
		}
		pkg, err := TypeCheck(fset, t.ImportPath, goVersion, names, imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
