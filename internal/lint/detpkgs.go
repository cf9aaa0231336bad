// Package lint hosts the repo-specific static analyzers
// that machine-enforce the invariants every shipped result depends on —
// figure CSVs byte-identical across worker counts, flood hot paths
// holding their pinned allocation budgets, and the fleet coordinator
// never doing I/O while its queue mutex is held.
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
// (the reference scheduler and network in sim's and p2p's tests) and the
// figure golden CSVs. Wall-clock reads and the global math/rand source
// are banned here (detrand), as is order-sensitive work inside unsorted
// map iteration (maporder).
//
// internal/fleet is deliberately absent: its coordinator expires leases
// on the wall clock.
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
	// obs records events stamped with simulation time: the tracer lives
	// inside deterministic packages' hot paths, so any wall-clock read
	// here would leak into trace output ordering.
	modulePath + "/internal/obs": true,
}

// hotPathPkgs lists the packages that carry the flood's per-message path.
// Closure-form scheduling and fmt string building are banned here
// (hotalloc) in favor of the closure-free form: indexed events
// (AfterIndexed) over by-value records. The package's AllocsPerRun tests
// hold the transaction relay, probes and rewiring at zero allocations;
// hotalloc also covers the block relay, which none of them runs.
var hotPathPkgs = map[string]bool{
	modulePath + "/internal/p2p": true,
}

// lockIOPkgs lists the packages where file/network I/O and JSON
// encode/decode must never be reachable while a sync mutex is held
// (lockio): the coordinator's queue mutex is on every lease poll, so I/O
// under it would stall every worker behind one commit.
var lockIOPkgs = map[string]bool{
	modulePath + "/internal/fleet": true,
}

// mapOrderScope scopes maporder: every deterministic package, plus the
// fleet — whose merges and spool publishes are order-contracted even
// though its clock is real.
func mapOrderScope(path string) bool {
	return deterministicPkgs[path] || lockIOPkgs[path]
}
