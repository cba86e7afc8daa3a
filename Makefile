GO ?= go

# Any recipe line that pipes (the coverage summary does) fails on the first
# failing stage: without pipefail the pipe would report only the last
# stage's status and mask the failure.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

.PHONY: build test stress fuzz loc cover bench bench-wide bench-compare vet lint race asan vulncheck doc ci

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Dedicated race-detector stress pass: concurrent evolution sessions and
# ApplyChange loops on independent warehouses, the cancel-at-every-hook
# sweep of the synchronization pass, and lock-free readers of the frozen
# configuration against a running session (TestConfigReadsRaceFree).
stress:
	$(GO) test -race -run 'Stress|RaceFree' ./...

# Short native fuzzing passes over the E-SQL parser, query routing, the
# attribute-change landings, the copy-on-write row store, the row checksum,
# the executor against the relation algebra and delta maintenance against
# recomputation (the seed corpora always run as part of plain `make test`).
# CI runs the same targets.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/esql
	$(GO) test -fuzz=FuzzQueryRoute -fuzztime=20s ./internal/warehouse
	$(GO) test -fuzz=FuzzLandChange -fuzztime=20s ./internal/space
	$(GO) test -fuzz=FuzzWithDeltaChain -fuzztime=20s ./internal/relation
	$(GO) test -fuzz=FuzzRowChecksum -fuzztime=20s ./internal/exec
	$(GO) test -fuzz=FuzzColumnarParity -fuzztime=20s ./internal/plan
	$(GO) test -fuzz=FuzzApplyDeltas -fuzztime=20s ./internal/maintain

# The three tracked size numbers of ROADMAP.md, by its exact commands:
# non-test lines outside bench/, root go doc lines, System's methods.
loc:
	@echo "non-test lines: $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l)"
	@echo "root go doc:    $$($(GO) doc -short . | wc -l)"
	@echo "System methods: $$($(GO) doc . System | grep -c '^func (s')"

# Coverage profile with a per-function summary; the total prints last.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

# The benchmark harness: every workload of BENCHMARK.json, end to end and
# layer by layer, into bench/out/result.json (see bench/README.md). One
# workload: go run ./bench -workload join-scan -seconds 5.
bench:
	$(GO) run ./bench

# Rewriting-search benchmark: the one search on wide views, unbounded
# (K = 0, the full ranking) vs bounded at K = 5. The unbounded side is
# intentionally slow — that is the point being measured — so this target,
# unlike the -short kernel smoke of `ci`, runs every leg.
bench-wide:
	$(GO) test -run='^$$' -bench=BenchmarkSynchronizeWide -benchtime=1x .

# Compare two saved ledger results (bench/out/result.json, ideally several
# interleaved runs a side) against the bounds of BENCHMARK.json; exits
# non-zero when an end-to-end metric is worse than its bound:
#
#	make bench-compare OLD=old.json NEW=new.json
bench-compare:
	$(GO) run ./bench compare $(OLD) $(NEW)

vet:
	$(GO) vet ./...

# Known-vulnerability scan over the module and its (stdlib-only)
# dependency graph. Skips gracefully where the tool is not installed, so
# offline development keeps working; CI installs it explicitly.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Static analysis: go vet plus the repository's own invariant linter
# (cmd/evevet — versionmut, cowcheck, ctxflow, errlink, doccheck; see
# internal/analysis/doc.go). Any finding fails the build.
lint: vet
	$(GO) run ./cmd/evevet

# Full race-detector suite. GORACE=halt_on_error=1 makes the first report
# fatal, so CI fails on the report itself rather than on whatever the
# corrupted schedule does afterwards.
race:
	GORACE=halt_on_error=1 $(GO) test -race -count=1 ./...

# Address-sanitizer smoke over the mutation-heavy packages. -asan needs
# cgo, a C toolchain, and platform support, so probe with a no-op build
# first and skip gracefully where any of that is missing.
asan:
	@if CGO_ENABLED=1 $(GO) build -asan -o /dev/null ./internal/relation 2>/dev/null; then \
		CGO_ENABLED=1 $(GO) test -asan -count=1 ./internal/relation ./internal/space ./internal/maintain ./internal/warehouse; \
	else \
		echo "go test -asan unsupported here (needs cgo + C toolchain); skipping"; \
	fi

# Serve godoc locally when the godoc tool is installed; otherwise fall back
# to dumping the API documentation to the terminal.
doc:
	@command -v godoc >/dev/null 2>&1 && \
		echo "godoc listening on http://localhost:6060/pkg/repro/" && godoc -http=:6060 || \
		{ $(GO) doc -all .; for d in internal/*; do $(GO) doc -all ./$$d; done; }

# CI runs the race suite once, with the coverage profile folded in; the
# dedicated stress step and the coverage summary reuse that single run.
# `test` and `cover` stay standalone targets for local iteration. lint
# (vet + evevet) runs first so an invariant violation fails before any
# test does.
ci: lint vulncheck build stress
	$(GO) test -race -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1
	$(GO) test -short -run='^$$' -bench=. -benchtime=1x ./...
	$(GO) run ./bench -workload http-mixed -seconds 1
	$(GO) run ./bench -workload route-wide -seconds 1
	$(GO) run ./bench -workload join-scan -seconds 1
	$(GO) run ./bench -workload update-maintain -seconds 1
	$(GO) run ./bench -workload evolve-churn -seconds 1
