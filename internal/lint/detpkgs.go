// Package lint hosts the repo-specific static analyzers
// that machine-enforce the invariants every shipped result depends on —
// figure CSVs byte-identical across worker counts, fleet merges
// bit-identical to serial sweeps, flood hot paths holding their pinned
// allocation budgets, and the fleet coordinator never doing I/O while
// its queue mutex is held.
//
// Each analyzer is scoped by import path through the tables in this
// file, so "which packages must be deterministic" is declared exactly
// once. See the README section "Static analysis & determinism rules"
// for the analyzer-by-analyzer contract and the //bcbptlint:allow
// escape-hatch policy.
package lint

// modulePath is this repo's module path; the scope tables below and the
// analyzers' own-package checks key off it.
const modulePath = "repro"

// deterministicPkgs lists the packages whose observable behavior must be
// a pure function of their seeds: they feed the differential suites
// (the reference scheduler and network in sim's and p2p's tests), the
// figure golden CSVs, and the fleet's bit-identical merges. Wall-clock
// reads and the global math/rand source are banned here (detrand), as is
// order-sensitive work inside unsorted map iteration (maporder).
//
// internal/fleet is deliberately absent: the fleet schedules real work
// on real clocks (lease TTLs are wall-clock failure-detection windows).
var deterministicPkgs = map[string]bool{
	modulePath + "/internal/sim":        true,
	modulePath + "/internal/p2p":        true,
	modulePath + "/internal/chain":      true,
	modulePath + "/internal/experiment": true,
	modulePath + "/internal/measure":    true,
	modulePath + "/internal/topology":   true,
	modulePath + "/internal/geo":        true,
	modulePath + "/internal/latency":    true,
	modulePath + "/internal/churn":      true,
	modulePath + "/internal/attack":     true,
	// obs records events stamped with simulation time: the tracer and
	// registry live inside deterministic packages' hot paths, so any
	// wall-clock read here would leak into trace output ordering. The
	// durations a histogram observes are measured by its callers, through
	// their own or injected clocks.
	modulePath + "/internal/obs": true,
}

// hotPathPkgs lists the packages that carry the flood's per-message path.
// Closure-form scheduling and fmt string building are banned here
// (hotalloc) in favor of the closure-free form: indexed events
// (AfterIndexed) over by-value records. make escapecheck pins the
// escapes of the functions it watches; hotalloc covers every function.
var hotPathPkgs = map[string]bool{
	modulePath + "/internal/p2p": true,
}

// lockIOPkgs lists the packages where file/network I/O and JSON
// encode/decode must never be reachable while a sync mutex is held
// (lockio) — the coordinator-stall bug class fixed by hand twice in
// PRs 4–5.
var lockIOPkgs = map[string]bool{
	modulePath + "/internal/fleet": true,
}

// mapOrderPkgs scopes maporder: every deterministic package, plus the
// fleet — whose merges and spool publishes are order-contracted even
// though its clocks are real.
func mapOrderScope(path string) bool {
	return deterministicPkgs[path] || lockIOPkgs[path]
}
