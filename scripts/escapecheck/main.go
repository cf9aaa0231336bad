// escapecheck pins the heap-escape profile of the simulator's hot
// functions. It reads `go build -gcflags=-m` diagnostics on stdin,
// attributes each "escapes to heap" / "moved to heap" line to its
// enclosing function by parsing the source, and compares the per-function
// escape messages of the functions listed in the manifest against the
// manifest's allowed set. A new escape in a watched function — an arena
// op, the flood dispatch path, the trace record — fails the check before
// it can show up as an allocs/op regression.
//
// Messages, not line numbers, key the comparison, so unrelated edits to a
// watched file do not churn the manifest. A watched key must name a function
// declared in one of the checked packages — those the diagnostics come from
// — or the check fails: a key left behind by a rename or a deletion would
// otherwise guard nothing. Regenerate after a deliberate change with:
//
//	./scripts/escapecheck.sh -write
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// manifest is the pinned escape budget: watched function key → allowed
// escape-analysis messages (duplicates meaningful — the comparison is by
// multiset).
type manifest struct {
	Watch map[string][]string `json:"watch"`
}

var diagRe = regexp.MustCompile(`^(.+\.go):(\d+):\d+: (.*)$`)

func main() {
	manifestPath := flag.String("manifest", "scripts/escape-manifest.json", "pinned escape budget")
	write := flag.Bool("write", false, "rewrite the manifest's allowed lists from the observed output")
	flag.Parse()

	data, err := os.ReadFile(*manifestPath)
	if err != nil {
		fatalf("reading manifest: %v", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		fatalf("parsing manifest %s: %v", *manifestPath, err)
	}

	// observed: watched key → escape messages, in input order. checked:
	// the package directories the diagnostics come from.
	observed := map[string][]string{}
	checked := map[string]bool{}
	funcs := funcIndex{}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		parts := diagRe.FindStringSubmatch(sc.Text())
		if parts == nil {
			continue
		}
		checked[filepath.Dir(parts[1])] = true
		msg := parts[3]
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		line, _ := strconv.Atoi(parts[2])
		key := funcs.keyFor(parts[1], line)
		if _, watched := m.Watch[key]; watched {
			observed[key] = append(observed[key], msg)
		}
	}
	if err := sc.Err(); err != nil {
		fatalf("reading stdin: %v", err)
	}
	if stale := undeclared(m.Watch, checked); len(stale) > 0 {
		for _, key := range stale {
			fmt.Printf("escapecheck: watched %s names no function declared in the checked packages\n", key)
		}
		fmt.Println("escapecheck: remove or rename the stale keys in the manifest")
		os.Exit(1)
	}

	if *write {
		for key := range m.Watch {
			msgs := append([]string(nil), observed[key]...)
			sort.Strings(msgs)
			if msgs == nil {
				msgs = []string{}
			}
			m.Watch[key] = msgs
		}
		out, err := json.MarshalIndent(&m, "", "  ")
		if err != nil {
			fatalf("encoding manifest: %v", err)
		}
		if err := os.WriteFile(*manifestPath, append(out, '\n'), 0o644); err != nil {
			fatalf("writing manifest: %v", err)
		}
		fmt.Printf("escapecheck: wrote %s (%d watched functions)\n", *manifestPath, len(m.Watch))
		return
	}

	keys := make([]string, 0, len(m.Watch))
	for key := range m.Watch {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	failed := false
	for _, key := range keys {
		extra := diffMultiset(observed[key], m.Watch[key])
		for _, msg := range extra {
			fmt.Printf("escapecheck: NEW heap escape in %s: %s\n", key, msg)
			failed = true
		}
	}
	if failed {
		fmt.Println("escapecheck: hot-path escape budget exceeded — remove the allocation, or regenerate the manifest with ./scripts/escapecheck.sh -write if the escape is deliberate")
		os.Exit(1)
	}
	fmt.Printf("escapecheck: %d watched functions within budget\n", len(keys))
}

// undeclared returns, sorted, the watched keys that name no function
// declared in the non-test files of a checked package directory.
func undeclared(watch map[string][]string, checked map[string]bool) []string {
	declared := map[string]bool{}
	parsed := map[string]bool{}
	var stale []string
	for key := range watch {
		// The package directory ends at the first dot after the last slash.
		slash := strings.LastIndex(key, "/") + 1
		dir := key[:slash+max(strings.Index(key[slash:], "."), 0)]
		if checked[dir] && !parsed[dir] {
			parsed[dir] = true
			files, err := filepath.Glob(filepath.Join(dir, "*.go"))
			if err != nil {
				fatalf("listing %s: %v", dir, err)
			}
			for _, file := range files {
				if strings.HasSuffix(file, "_test.go") {
					continue
				}
				for _, s := range parseSpans(file) {
					declared[dir+"."+s.name] = true
				}
			}
		}
		if !declared[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	return stale
}

// diffMultiset returns the elements of got not covered by allowed,
// counting duplicates.
func diffMultiset(got, allowed []string) []string {
	budget := map[string]int{}
	for _, msg := range allowed {
		budget[msg]++
	}
	var extra []string
	for _, msg := range got {
		if budget[msg] > 0 {
			budget[msg]--
			continue
		}
		extra = append(extra, msg)
	}
	return extra
}

// funcIndex lazily parses each source file named in the diagnostics and
// maps lines to enclosing declarations.
type funcIndex struct {
	files map[string][]funcSpan
}

type funcSpan struct {
	name     string
	from, to int
}

// keyFor returns "<pkg dir>.<func>" for the declaration enclosing
// file:line — "internal/sim.(*Scheduler).AfterIndexed",
// "internal/sim.Ticket.Before" — attributing function
// literals to their enclosing declaration. Lines outside any declaration
// (package-level values) key as "<pkg dir>.<package scope>".
func (fi *funcIndex) keyFor(file string, line int) string {
	if fi.files == nil {
		fi.files = map[string][]funcSpan{}
	}
	spans, ok := fi.files[file]
	if !ok {
		spans = parseSpans(file)
		fi.files[file] = spans
	}
	dir := filepath.ToSlash(filepath.Dir(file))
	for _, s := range spans {
		if line >= s.from && line <= s.to {
			return dir + "." + s.name
		}
	}
	return dir + ".<package scope>"
}

func parseSpans(file string) []funcSpan {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
	if err != nil {
		fatalf("parsing %s: %v", file, err)
	}
	var spans []funcSpan
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		name := fd.Name.Name
		if fd.Recv != nil && len(fd.Recv.List) == 1 {
			// As the toolchain names methods: "(*Scheduler).Push" for a
			// pointer receiver, "Ticket.Before" for a value one.
			var b strings.Builder
			printRecvType(&b, fd.Recv.List[0].Type)
			recv := b.String()
			if strings.HasPrefix(recv, "*") {
				recv = "(" + recv + ")"
			}
			name = recv + "." + name
		}
		spans = append(spans, funcSpan{
			name: name,
			from: fset.Position(fd.Pos()).Line,
			to:   fset.Position(fd.End()).Line,
		})
	}
	return spans
}

// printRecvType renders a receiver type expression ("*Scheduler",
// "Stats") without importing go/printer.
func printRecvType(b *strings.Builder, e ast.Expr) {
	switch t := e.(type) {
	case *ast.StarExpr:
		b.WriteByte('*')
		printRecvType(b, t.X)
	case *ast.Ident:
		b.WriteString(t.Name)
	case *ast.IndexExpr: // generic receiver
		printRecvType(b, t.X)
	case *ast.IndexListExpr:
		printRecvType(b, t.X)
	default:
		b.WriteString("?")
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "escapecheck: "+format+"\n", args...)
	os.Exit(1)
}
