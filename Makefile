GO ?= go

.PHONY: build test race vet fmt-check staticcheck rwrdbench-test check chaos fuzz bench bench-json load loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# -lostcancel guards the context plumbing through the query path: every
# WithCancel/WithDeadline must release its timer (the singleflight flight
# contexts in particular). The chaos tests and fault points compile only
# under the faultinject tag, so that build is vetted too.
vet:
	$(GO) vet -lostcancel ./...
	$(GO) vet ./...
	$(GO) vet -tags faultinject ./...

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# staticcheck is optional locally (skipped when the binary is absent) but
# CI installs it, so the gate is always enforced on pull requests.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI enforces it)"; \
	fi

# rwrdbench-test runs the end-to-end benchmark harness's own tests.
# rwrdbench is a nested module, so the root ./... patterns never reach it;
# its integration test builds rwrd and boots it with the benchmark's
# deployment flags, so it also catches an rwrd that rejects one of them.
rwrdbench-test:
	cd rwrdbench && $(GO) test ./...

# check is the CI gate: formatting, static analysis, the full test suite
# under the race detector, and the benchmark harness's tests.
check: fmt-check vet staticcheck race rwrdbench-test

# chaos compiles the fault-injection points in (build tag "faultinject")
# and runs the whole suite — including the phase-targeted deadline and
# panic-containment tests — under the race detector.
chaos:
	$(GO) test -race -tags faultinject ./...

# fuzz smoke-runs each fuzz target in turn for FUZZTIME (go test -fuzz takes
# one target in one package per run). The seed corpora already run with
# every plain go test; this explores past them. A failing input is written
# under the package's testdata/fuzz for replay.
FUZZTIME ?= 10s
FUZZ_TARGETS = ./cmd/rwrd:FuzzEdgesBody ./cmd/rwrd:FuzzBatchBody \
	./internal/live:FuzzManagerApply ./internal/graph:FuzzLoadEdgeList \
	./internal/graph:FuzzReadBinary

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t##*:}; \
		echo "fuzz $$fn ($$pkg) for $(FUZZTIME)"; \
		$(GO) test -run '^$$' -fuzz "^$$fn$$" -fuzztime $(FUZZTIME) $$pkg; \
	done

# bench runs every benchmark in the module once, so a refactor cannot break
# a benchmark body (an ungated row included) without CI noticing. It times
# nothing worth reading; bench-json is the measured run.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-json runs the query-path benchmarks with -benchmem and writes
# BENCH_resacc.json (ns/op, B/op, allocs/op, plus the committed pre-pooling
# baseline). CI uploads it as an artifact.
bench-json:
	./scripts/benchjson.sh

# load smoke-runs the rwrload driver against a local rwrd instance on a
# small generated graph: single-query and batch modes, a few seconds each.
load:
	./scripts/loadsmoke.sh

# loc prints the size yardstick ROADMAP.md tracks: non-test Go lines
# outside the rwrdbench module (and outside hidden directories such as
# .bench_build, the benchmark's build cache). It reports; it gates nothing.
loc:
	@printf 'non-test Go LOC outside rwrdbench/: '
	@find . -name '*.go' ! -name '*_test.go' ! -path './rwrdbench/*' ! -path './.*' -exec cat {} + | wc -l
