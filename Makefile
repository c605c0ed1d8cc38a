# Build/verify entry points; DESIGN.md §10 says what each gate asserts.
# `make <name>-smoke` runs scripts/<name>_smoke.sh.

GO ?= go

# The smokes are not listed: make skips pattern rules for phony targets.
.PHONY: build test vet bench-check verify race loc bench-par bench-step

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# bench/ is its own module, outside ./...: a renamed internal/ symbol it
# imports passes build/vet/test above and breaks only the benchmark.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

verify: build vet test bench-check

# A construction template's mesh and face list are read by many solvers at
# once, so mesh, checkpoint and core run under the detector too.
race:
	$(GO) test -race ./internal/par/... ./internal/mesh/... ./internal/checkpoint/... ./internal/clamr/... ./internal/core/... ./internal/self/... ./internal/serve/... ./internal/runner/... ./cmd/precision-worker/...

# Net non-test Go lines outside bench/: the number CHANGES.md reports per PR.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l

%-smoke:
	GO="$(GO)" ./scripts/$*_smoke.sh

bench-par:
	$(GO) test ./internal/par/ -run '^$$' -bench BenchmarkParDispatch -benchmem | tee results/par_pool_bench.txt

bench-step:
	$(GO) test ./internal/clamr/ -run '^$$' -bench BenchmarkCLAMRStep -benchmem
	$(GO) test ./internal/self/ -run '^$$' -bench BenchmarkSELFStep -benchmem
