#!/usr/bin/env sh
# escapecheck.sh [-write]
#
# CI gate on the heap-escape profile of the hot paths: runs the
# compiler's escape analysis (`go build -gcflags=-m`) over the kernel
# packages and compares the escapes attributed to the watched functions
# in scripts/escape-manifest.json — arena scheduler ops, the flood
# dispatch chain, the trace record — against the
# pinned budget. A new escape in a watched function exits nonzero, and
# so does a watched key that names no function of these packages.
#
# The -m diagnostics replay from the build cache, so this is cheap on a
# warm tree. After a deliberate hot-path change, regenerate the budget:
#
#   ./scripts/escapecheck.sh -write
set -eu
cd "$(dirname "$0")/.."

go build -gcflags='-m' ./internal/sim ./internal/p2p ./internal/obs ./internal/topology 2>&1 |
	go run ./scripts/escapecheck -manifest scripts/escape-manifest.json "$@"
