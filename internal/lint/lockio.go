package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Lockio flags file/network I/O, JSON and shard encode/decode/merge, and
// sleeps reachable while a sync.Mutex/RWMutex is held, in the packages listed
// in lockIOPkgs. A coordinator that touches the disk or a socket under
// its queue mutex serializes every concurrent lease poll behind that
// syscall — the bug class fixed by hand twice in PRs 4–5 (shard decode
// under the commit lock, spool writes stalling lease traffic).
//
// Detection is package-local but transitive, built on the shared
// interprocedural engine: analysis.CallGraph.Reaches classifies a
// function that performs I/O directly (or calls a same-package function
// that does) so it counts as an I/O call at its call sites, and
// analysis.WalkLockRegions tracks the lexical critical sections — from
// <expr>.Lock()/.RLock() to the matching .Unlock()/.RUnlock(), with
// `defer <expr>.Unlock()` holding to the end of the function. Calls
// inside `go` statements and non-invoked function literals run outside
// the lexical region and are not charged to it.
//
// The one sanctioned exception in-tree — os.Rename as an atomic publish
// under the queue mutex, with the data written beforehand outside the
// lock — carries a //bcbptlint:allow lockio annotation at the site.
var Lockio = &analysis.Analyzer{
	Name: "lockio",
	Doc: "flag file/network I/O and JSON or shard encode/decode reachable while a sync mutex is held " +
		"in fleet packages; move the work outside the critical section",
	Run: runLockio,
}

// ioPkgFuncs classifies package-level functions that block on the
// outside world (or burn unbounded CPU marshalling) as I/O.
var ioPkgFuncs = map[string]map[string]bool{
	"os": {
		"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
		"ReadFile": true, "WriteFile": true, "Rename": true, "Remove": true,
		"RemoveAll": true, "Mkdir": true, "MkdirAll": true, "MkdirTemp": true,
		"ReadDir": true, "Stat": true, "Lstat": true, "Chmod": true, "Truncate": true,
	},
	"io":            {"Copy": true, "CopyN": true, "CopyBuffer": true, "ReadAll": true, "WriteString": true, "ReadFull": true},
	"net/http":      {"Get": true, "Head": true, "Post": true, "PostForm": true},
	"net":           {"Dial": true, "DialTimeout": true, "Listen": true},
	"encoding/json": {"Marshal": true, "MarshalIndent": true, "Unmarshal": true},
	"time":          {"Sleep": true},
	"path/filepath": {"Glob": true, "Walk": true, "WalkDir": true},
	// The shard codec and merge are linear in a shard's samples — the
	// same "unbounded CPU under the queue mutex" class as encoding/json,
	// which they replaced on the commit path.
	"repro/internal/measure": {"EncodeCampaignResult": true, "DecodeCampaignResult": true, "MergeCampaignResults": true},
}

// ioMethodTypes classifies methods by receiver type: "*" means any
// method on the type blocks (files, sockets), otherwise the named set.
var ioMethodTypes = map[[2]string]map[string]bool{
	{"os", "File"}:                 nil, // any method
	{"net", "Conn"}:                nil,
	{"net", "TCPConn"}:             nil,
	{"net", "Listener"}:            nil,
	{"net/http", "ResponseWriter"}: nil,
	{"net/http", "Client"}:         {"Do": true, "Get": true, "Post": true, "PostForm": true, "Head": true},
	{"encoding/json", "Encoder"}:   {"Encode": true},
	{"encoding/json", "Decoder"}:   {"Decode": true},
}

func runLockio(pass *analysis.Pass) error {
	if !lockIOPkgs[pass.Path()] {
		return nil
	}
	info := pass.TypesInfo()

	// Pass 1: classify package functions that reach I/O, to a fixpoint.
	// Work inside `go` statements and non-invoked literals does not run
	// inside the caller's critical section (see analysis.NewCallGraph).
	g := analysis.NewCallGraph(pass)
	direct := func(call *ast.CallExpr) string { return directIOCall(info, call) }
	reaches := g.Reaches(direct)

	// Pass 2: walk lock regions and flag I/O-reaching calls inside them.
	for _, fd := range g.Funcs() {
		analysis.WalkLockRegions(pass.Fset(), info, fd.Body, func(n ast.Node, held []analysis.HeldLock) {
			if len(held) == 0 {
				return
			}
			ast.Inspect(n, func(node ast.Node) bool {
				switch node := node.(type) {
				case *ast.FuncLit, *ast.GoStmt:
					return false
				case *ast.CallExpr:
					if what := g.Describe(node, direct, reaches); what != "" {
						h := held[len(held)-1]
						pass.Reportf(node.Pos(),
							"I/O call %s while %s is held (locked at line %d): move it outside the critical section",
							what, h.Key, h.Line)
					}
				}
				return true
			})
		})
	}
	return nil
}

// directIOCall describes the I/O performed by call itself (not through
// same-package callees — the call graph layers that on), or "".
func directIOCall(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil {
		return ""
	}
	if names, ok := ioPkgFuncs[funcPkgPath(fn)]; ok && names[fn.Name()] {
		if sig, sok := fn.Type().(*types.Signature); sok && sig.Recv() == nil {
			return funcPkgPath(fn) + "." + fn.Name()
		}
	}
	if pkgPath, typeName, ok := recvNamed(fn); ok {
		if names, hit := ioMethodTypes[[2]string{pkgPath, typeName}]; hit && (names == nil || names[fn.Name()]) {
			return "(" + typeName + ")." + fn.Name()
		}
	}
	return ""
}
