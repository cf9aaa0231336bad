package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// wallClockFuncs are the package-level time functions that read or react
// to the machine clock. Simulation code runs on virtual time
// (sim.Scheduler.Now); any of these in a deterministic package makes
// output depend on host scheduling.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

// seededConstructors are, per rand package, the package-level functions
// that do NOT draw from the process-global source: constructors for
// explicitly seeded generators, which are exactly the sanctioned idiom.
// Matching is by full identity — defining package, name, and a first
// result whose named type is declared by that same rand package — so a
// look-alike helper that merely shares a constructor's name (or a
// future rand function that returns something other than a generator)
// cannot claim the exemption.
var seededConstructors = map[string]map[string]bool{
	"math/rand":    {"New": true, "NewSource": true, "NewZipf": true},
	"math/rand/v2": {"New": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true},
}

// isSeededConstructor applies the seededConstructors identity check.
func isSeededConstructor(fn *types.Func) bool {
	names, ok := seededConstructors[funcPkgPath(fn)]
	if !ok || !names[fn.Name()] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil || sig.Results().Len() == 0 {
		return false
	}
	t := sig.Results().At(0).Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == funcPkgPath(fn)
}

// Detrand bans wall-clock reads, the global math/rand source and any use
// of crypto/rand in the deterministic packages (see deterministicPkgs).
// Every replication must be a pure function of its seed chain: draw
// randomness from a seed-chained *rand.Rand (sim.Streams / sim.DeriveSeed)
// and timestamps from the scheduler clock.
var Detrand = &analysis.Analyzer{
	Name: "detrand",
	Doc: "ban time.Now/time.Since, global math/rand and crypto/rand in deterministic packages; " +
		"use sim.Scheduler.Now and seed-chained RNG streams instead",
	Run: runDetrand,
}

func runDetrand(pass *analysis.Pass) error {
	if !deterministicPkgs[pass.Path()] {
		return nil
	}
	info := pass.TypesInfo()
	for _, f := range pass.Files() {
		if !pass.Lintable(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if obj := info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "crypto/rand" {
				pass.Reportf(sel.Pos(),
					"crypto/rand.%s in deterministic package %s: its bytes differ on every run; use a seed-chained stream",
					obj.Name(), pass.Path())
				return true
			}
			fn, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods (e.g. (*rand.Rand).Intn) are the sanctioned form
			}
			switch fn.Pkg().Path() {
			case "time":
				if wallClockFuncs[fn.Name()] {
					pass.Reportf(sel.Pos(),
						"wall-clock time.%s in deterministic package %s: derive time from the scheduler clock (sim.Scheduler.Now / virtual delays)",
						fn.Name(), pass.Path())
				}
			case "math/rand", "math/rand/v2":
				if !isSeededConstructor(fn) {
					pass.Reportf(sel.Pos(),
						"global %s.%s draws from the process-wide source in deterministic package %s: use a seed-chained stream (sim.Streams / rand.New(rand.NewSource(seed)))",
						fn.Pkg().Path(), fn.Name(), pass.Path())
				}
			}
			return true
		})
	}
	return nil
}
