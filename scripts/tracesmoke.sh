#!/usr/bin/env sh
# tracesmoke.sh [BINDIR]
#
# End-to-end proof that tracing is purely observational: a tiny Figure 3
# sweep runs untraced and traced, and the two CDF CSVs must be
# byte-identical. The trace export is then validated with
# scripts/tracecheck: the trace_event JSON must have the shape Perfetto
# loads and must have lost no events to the ring. Any
# tracing hook that perturbs simulation state, any export regression,
# shows up here. CI runs this on every push (make trace-smoke).
set -eu

bin="${1:-$(mktemp -d)}"
go build -o "$bin" ./cmd/bcbpt-sim ./scripts/tracecheck

sweep="-experiment figure3 -nodes 120 -runs 5 -seed 1"

echo "tracesmoke: untraced run"
"$bin/bcbpt-sim" $sweep -csv "$bin/plain.csv" > /dev/null

echo "tracesmoke: traced run"
"$bin/bcbpt-sim" $sweep -trace "$bin/trace.json" -csv "$bin/traced.csv" > /dev/null

fail=0
if cmp -s "$bin/traced.csv" "$bin/plain.csv"; then
    echo "tracesmoke: OK — traced.csv is byte-identical to the untraced output"
else
    echo "tracesmoke: FAIL — traced.csv differs from untraced output (tracing perturbed the simulation)" >&2
    diff "$bin/traced.csv" "$bin/plain.csv" >&2 || true
    fail=1
fi

"$bin/tracecheck" "$bin/trace.json" || fail=1
exit "$fail"
