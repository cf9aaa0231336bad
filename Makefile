# Local and CI entry points — .github/workflows/ci.yml invokes exactly
# these targets, so a green `make ci` locally means a green pipeline.

GO ?= go

# Pinned lint/vuln tool versions — bump deliberately, not via @latest, so
# a tool release can't break CI on an unrelated day. `make lint-tools`
# installs them; `make lint` skips (loudly) any tool that isn't on PATH,
# so offline or minimal environments still get a green `make ci`.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.3

# staticcheck runs the full catalog minus package-comment and
# underscore-name style checks, which this codebase deliberately does not
# follow everywhere (test fixtures, generated tables).
STATICCHECK_CHECKS ?= all,-ST1000,-ST1003

.PHONY: build test race bench-smoke fmt vet lint lint-tools fuzz-smoke trace-smoke paper-digest ci

build:
	$(GO) build ./...

# The tests carry the byte pins (figure3 goldens and digests) and the
# allocation pins: floods, probe rounds, the JOIN exchange, rewiring and the
# scheduler, each counted in total over many operations (AllocsPerRun).
test:
	$(GO) test ./...

# The engine runs campaign units on concurrent goroutines (sim.ParallelFor)
# and sums their observations under a lock (experiment.SweepTotals), and
# the fleet coordinator serves concurrent HTTP lease and commit requests
# against one queue mutex; keep the concurrent packages honest under the
# race detector. A network build (placement, the BCBPT protocol, the DNS
# seed and its geographic index), a p2p.Network and an obs.Tracer shard
# are single-goroutine by contract and carry no lock, while several units
# build, run and trace side by side: running their tests here is what
# holds that claim.
race:
	$(GO) test -race ./internal/sim ./internal/experiment ./internal/core ./internal/topology ./internal/measure ./internal/fleet ./internal/p2p ./internal/wire ./internal/obs

# Short fuzz passes over the differential fuzz targets that guard the
# flat-node and arena-scheduler kernels and the DNS seed's pruned
# k-nearest search against their reference implementations, over the
# shard decoder the fleet coordinator runs on bytes from a socket (no
# panic, and what it accepts re-encodes to the bytes it read), and over
# the commit endpoint that hands it those bytes (arbitrary query and body
# against a live lease: no wrong acceptance, no temp file left, a resend
# is rejected). 30s each: enough to shake out shallow divergence
# regressions on every CI run without burning runner minutes. Set
# FUZZ_RACE=-race to also run the fuzz executions under the race detector
# (the stable CI leg does; slower, so off by default locally).
FUZZ_RACE ?=
fuzz-smoke:
	$(GO) test $(FUZZ_RACE) -run='^$$' -fuzz=FuzzFlatNodeMatchesReference -fuzztime=30s ./internal/p2p
	$(GO) test $(FUZZ_RACE) -run='^$$' -fuzz=FuzzArenaMatchesReference -fuzztime=30s ./internal/sim
	$(GO) test $(FUZZ_RACE) -run='^$$' -fuzz=FuzzRecommendMatchesReference -fuzztime=30s ./internal/topology
	$(GO) test $(FUZZ_RACE) -run='^$$' -fuzz=FuzzDecodeCampaignResult -fuzztime=30s ./internal/measure
	$(GO) test $(FUZZ_RACE) -run='^$$' -fuzz=FuzzCommitBody -fuzztime=30s ./internal/fleet

# Observability smoke: a traced figure3 run must produce a CDF CSV
# byte-identical to the untraced run, and its Perfetto JSON export must
# validate. See scripts/tracesmoke.sh.
trace-smoke:
	sh scripts/tracesmoke.sh

# The repository benchmark (bench/, what BENCHMARK.json runs) is a nested
# module that root `go test ./...` never sees: vet it and run its tests,
# which include every workload at smoke scale.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Paper scale pinned: figure3 at 5000 nodes, plain and under churn, against
# the sha256 in internal/experiment/testdata/figure3_5000.sha256 (about ten
# seconds; the test's doc comment has the regeneration commands). Part of
# `make ci` and of the stable CI leg: any change that claims byte identity
# is checked at the paper's scale on every run.
paper-digest:
	BCBPT_PAPER_SCALE=1 $(GO) test -run='^TestFigure3PaperScaleDigest$$' -count=1 -v ./internal/experiment

fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

vet:
	$(GO) vet ./...

lint-tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

# Static analysis beyond vet. The repo's own analyzer suite
# (internal/lint: determinism, hot-path allocation, and lock-I/O
# invariants) runs as internal/lint's tests: TestRepoIsClean type-checks
# the module and must report nothing, and go test caches its pass until
# a file in the module changes. It needs no module dependency, so it
# ALWAYS runs — offline too. staticcheck and govulncheck run only when
# installed (see lint-tools); a missing external tool prints a notice
# instead of failing so sandboxed machines without network access still
# get a green `make ci`.
lint:
	$(GO) test ./internal/lint
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck -checks $(STATICCHECK_CHECKS) ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (make lint-tools)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; skipping (make lint-tools)"; \
	fi

ci: build fmt vet lint test paper-digest bench-smoke race fuzz-smoke trace-smoke
