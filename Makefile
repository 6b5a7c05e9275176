# Developer entry points. `make verify` mirrors the CI job exactly.

GO ?= go

# Third-party linters are version-pinned here (the single source CI
# installs from) so lint results are reproducible. The module itself has
# no dependencies, so the pins live in the Makefile rather than a
# tools.go: adding go.mod requirements just to version dev tools would
# put the whole build at the mercy of the network. Locally the tools are
# optional; campslint always runs.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: build vet fmt-check test race orchestration observability serve serve-smoke lint lint-tools fuzz-smoke fault-smoke verify bench bench-json bench-check figures clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every tracked Go file must be gofmt-clean. The file list comes from git
# so untracked build trees (the benchmark's .bench_build/ module cache)
# are never scanned.
fmt-check:
	@out="$$(gofmt -l $$(git ls-files '*.go'))"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# The vault controller carries the most state and the most engine
# callbacks of any package; stress it uncached alongside the ./... sweep
# so a race there cannot hide behind the test cache.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=1 ./internal/vault/...

# The orchestration layer (scheduler, checkpoint store, context-threaded
# public API) is the most concurrency-sensitive code in the repo; vet and
# race-test it explicitly even when iterating on a subset of packages.
orchestration:
	$(GO) vet ./internal/exp/... ./internal/harness/... .
	$(GO) test -race ./internal/exp/... ./internal/harness/... .

# The observability layer crosses goroutines in exactly one place (the
# SSE stream server) and the campaign runner snapshots metrics from the
# scheduler goroutine; race-test both packages explicitly so a data race
# there cannot hide behind a cached ./... run.
observability:
	$(GO) test -race -count=1 ./internal/obs/... ./internal/exp/...

# The serving layer multiplexes tenants, goroutines, and fsync'd state;
# always race-test it uncached. The suite includes the 2000-job soak
# storm and the SIGKILL crash-recovery subprocess test (docs/SERVING.md).
serve:
	$(GO) test -race -count=1 ./internal/serve/...

# End-to-end daemon self-test: boots an ephemeral campserve, drives a
# real campaign over HTTP, and verifies completion, SSE terminal events,
# and byte-identical cache-hit results before draining.
serve-smoke:
	$(GO) run ./cmd/campserve -smoke >/dev/null

# campslint enforces the determinism/concurrency invariants (see
# docs/LINTING.md); -allow-budget holds the //lint:allow-* count to the
# committed .campslint-budget baseline. staticcheck and govulncheck run
# when installed (`make lint-tools`), and always in CI.
lint:
	$(GO) run ./cmd/campslint -allow-budget ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (make lint-tools installs $(STATICCHECK_VERSION))"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (make lint-tools installs $(GOVULNCHECK_VERSION))"; \
	fi

lint-tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

# Short deterministic-budget fuzz runs over the parsers that ingest
# external bytes: the checkpoint store, the compact trace format, and the
# fault-spec grammar.
fuzz-smoke:
	$(GO) test ./internal/exp -run=^$$ -fuzz=FuzzStoreRepair -fuzztime=10s
	$(GO) test ./internal/trace -run=^$$ -fuzz=FuzzCompactDecode -fuzztime=10s
	$(GO) test ./internal/fault -run=^$$ -fuzz=FuzzParseSpec -fuzztime=10s

# End-to-end degraded-memory smoke: a full campsim run with every fault
# class at a nonzero rate and the invariant checker armed. Exercises the
# whole injection path (links, vaults, buffer, banks) in ~10s of wall
# clock; any accounting drift under faults aborts with a typed error.
fault-smoke:
	$(GO) run ./cmd/campsim -mix HM1 -scheme CAMPS-MOD -instr 60000 -warmup 5000 \
		-faults 'linkcrc=1e-3,stall=1e-4,poison=2e-3,bankfail=100us,bankfor=2us' \
		-check -timeout 10s >/dev/null

verify: build vet fmt-check race orchestration observability serve lint fault-smoke serve-smoke

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# Simulator-throughput baselines (see docs/PERFORMANCE.md). BENCH_BASELINE
# is the newest committed BENCH_*.json; the date-stamped names sort
# chronologically, so lexical max == latest. `make bench-json` records a
# new baseline; `make bench-check` replays the same scenarios (best of 3)
# and fails if any scenario's events/sec regressed more than 15%, or its
# allocs/op grew more than 2%.
BENCH_BASELINE ?= $(lastword $(sort $(wildcard BENCH_*.json)))

bench-json:
	$(GO) run ./cmd/campbench -bench -bench-count 3

bench-check:
	@test -n "$(BENCH_BASELINE)" || { echo "bench-check: no BENCH_*.json baseline found"; exit 1; }
	$(GO) run ./cmd/campbench -bench -bench-count 3 -bench-out "" \
		-bench-baseline $(BENCH_BASELINE)

figures:
	$(GO) run ./cmd/campbench

clean:
	$(GO) clean ./...
