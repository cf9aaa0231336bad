package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Maporder flags `range` over a map whose body does order-sensitive
// work: scheduling or delivering events, writing output, or building a
// slice that is never sorted afterwards in the same function. Go map
// iteration order is deliberately randomized, so any of these turns
// into run-to-run nondeterminism that the differential suites and
// golden CSVs exist to prevent.
//
// The sanctioned idioms pass untouched: collect-keys-then-sort loops
// (the append is followed by a sort.*/slices.Sort* call on the same
// slice later in the function), pure aggregation (sums, counts, min/max
// with explicit tie-breaks), and building another map or set.
var Maporder = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flag order-sensitive work (event scheduling, output writes, unsorted slice building) " +
		"inside range-over-map; sort keys first or aggregate order-independently",
	Run: runMaporder,
}

// schedulerOrderMethods are *sim.Scheduler methods whose relative call
// order is observable in dispatch order (same-tick events dispatch in
// insertion sequence). Reserve takes a sequence number like the rest;
// Redeem keeps the place its ticket has, but the state behind the event it
// queues — a record from its caller's arena — is taken in call order.
var schedulerOrderMethods = map[string]bool{
	"At": true, "After": true, "AfterIndexed": true,
	"Reserve": true, "Redeem": true,
}

// p2pOrderMethods are p2p Network/Node entry points that enqueue
// deliveries or mutate adjacency; calling them in map order reorders
// the event stream.
var p2pOrderMethods = map[string]bool{
	// *p2p.Network
	"Connect": true, "ConnectUnbounded": true, "Disconnect": true,
	"AddNode": true, "RemoveNode": true,
	"send": true, "deliver": true, "connect": true, "teardown": true,
	// *p2p.Node
	"Send": true, "SubmitTx": true, "SubmitBlock": true,
	"ProbeN": true, "announce": true,
}

// fmtOutputFuncs are fmt package functions that emit formatted output.
var fmtOutputFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// writerMethods are method names that append to an ordered sink when
// invoked on a writer-shaped receiver (io.Writer implementations, CSV
// writers, hash.Hash, string builders).
var writerMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "WriteAll": true,
}

// encoderTypes are stream-encoder types whose Encode method emits in
// call order.
var encoderTypes = map[[2]string]bool{
	{"encoding/json", "Encoder"}: true,
	{"encoding/gob", "Encoder"}:  true,
	{"encoding/xml", "Encoder"}:  true,
}

func runMaporder(pass *analysis.Pass) error {
	if !mapOrderScope(pass.Path()) {
		return nil
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
			checkMapRanges(pass, fd.Body)
		}
	}
	return nil
}

func checkMapRanges(pass *analysis.Pass, scope *ast.BlockStmt) {
	info := pass.TypesInfo()
	ast.Inspect(scope, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := info.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRangeBody(pass, scope, rng)
		return true
	})
}

func checkMapRangeBody(pass *analysis.Pass, scope *ast.BlockStmt, rng *ast.RangeStmt) {
	info := pass.TypesInfo()
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if why := orderSensitiveCall(info, n); why != "" {
				pass.Reportf(n.Pos(),
					"%s inside range over map (iteration order is randomized): sort the keys first or restructure order-independently",
					why)
			}
		case *ast.AssignStmt:
			checkMapRangeAppend(pass, scope, rng, n)
		}
		return true
	})
}

// orderSensitiveCall classifies a call whose per-iteration order is
// observable, returning a short description or "".
func orderSensitiveCall(info *types.Info, call *ast.CallExpr) string {
	fn := analysis.Callee(info, call)
	if fn == nil {
		return ""
	}
	name := fn.Name()
	if pkg := funcPkgPath(fn); pkg == "fmt" && fmtOutputFuncs[name] {
		return "output write fmt." + name
	}
	pkgPath, typeName, isMethod := recvNamed(fn)
	if !isMethod {
		return ""
	}
	switch {
	case pkgPath == modulePath+"/internal/sim" && typeName == "Scheduler" && schedulerOrderMethods[name]:
		return "event-scheduling call (*sim.Scheduler)." + name
	case pkgPath == modulePath+"/internal/p2p" && (typeName == "Network" || typeName == "Node") && p2pOrderMethods[name]:
		return "event-ordering call (*p2p." + typeName + ")." + name
	case encoderTypes[[2]string{pkgPath, typeName}] && name == "Encode":
		return "stream encode (*" + pkgPath + "." + typeName + ").Encode"
	case writerMethods[name] && hasWriteMethod(fn):
		return "ordered sink write (*" + typeName + ")." + name
	}
	return ""
}

// hasWriteMethod reports whether fn's receiver type also has a Write
// method — the signature of an ordered byte sink (io.Writer, hash.Hash,
// bytes.Buffer, csv.Writer) as opposed to an incidental WriteX name.
func hasWriteMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(sig.Recv().Type(), true, fn.Pkg(), "Write")
	_, isFunc := obj.(*types.Func)
	return isFunc
}

// checkMapRangeAppend flags `x = append(x, ...)` in a map-range body
// when x outlives the loop and is never sorted later in the enclosing
// function — the slice inherits map iteration order.
func checkMapRangeAppend(pass *analysis.Pass, scope *ast.BlockStmt, rng *ast.RangeStmt, as *ast.AssignStmt) {
	info := pass.TypesInfo()
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			continue
		}
		if b, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin || b.Name() != "append" {
			continue
		}
		if i >= len(as.Lhs) {
			continue
		}
		lhs, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
		if !ok {
			continue
		}
		obj := objOf(info, lhs)
		if obj == nil {
			continue
		}
		// Slices born inside the loop body don't carry order out of it.
		if obj.Pos() >= rng.Body.Pos() && obj.Pos() <= rng.Body.End() {
			continue
		}
		if sortedAfter(info, scope, rng, obj) {
			continue
		}
		pass.Reportf(as.Pos(),
			"append to %s inside range over map builds a map-ordered slice: sort it before use (sort.*/slices.Sort*) or iterate sorted keys",
			lhs.Name)
	}
}

// sortFuncs are the package-level sorting entry points recognized as
// restoring determinism to a collected slice.
var sortFuncs = map[string]map[string]bool{
	"sort": {
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
		"Strings": true, "Ints": true, "Float64s": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
	},
}

// sortedAfter reports whether some sort call mentioning obj appears in
// the enclosing function after the range loop ends.
func sortedAfter(info *types.Info, scope *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(scope, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		fn := analysis.Callee(info, call)
		if fn == nil {
			return true
		}
		names := sortFuncs[funcPkgPath(fn)]
		if names == nil || !names[fn.Name()] {
			return true
		}
		for _, arg := range call.Args {
			if mentionsObj(info, arg, obj) {
				found = true
				break
			}
		}
		return true
	})
	return found
}
