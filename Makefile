# Build/verify entry points; DESIGN.md §10 says what each gate asserts.
# `make <name>-smoke` runs scripts/<name>_smoke.sh.

GO ?= go

# The smokes are not listed: make skips pattern rules for phony targets.
.PHONY: build test vet bench-check verify race fma-check loc bench-par bench-step

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

# SELF's RHS rounds every product that feeds an add or subtract with an
# explicit conversion, so no target fuses it into a multiply-add and its
# bits are the same on every architecture. Go never fuses on amd64 but does
# on arm64, so this cross-builds the package's test binary for arm64 and
# fails on any FMADD/FMSUB/FNMADD/FNMSUB attributed to rhs.go. sample.go
# (75 fused ops) and self.go (27) are not covered yet: widening this guard
# to them and to the other kernels is ROADMAP's Portable bits item.
fma-check:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	GOARCH=arm64 $(GO) test -c -o "$$dir/self.test" ./internal/self/; \
	$(GO) tool objdump -s 'repro/internal/self\.' "$$dir/self.test" > "$$dir/dis"; \
	grep -q '^[[:space:]]*rhs\.go:' "$$dir/dis" || { echo "fma-check: no rhs.go code in the arm64 build"; exit 1; }; \
	if grep -E '^[[:space:]]*rhs\.go:[0-9]+[[:space:]].*[[:space:]]F(N)?M(ADD|SUB)[SD][[:space:]]' "$$dir/dis"; then \
		echo "fma-check: fused multiply-adds from rhs.go (listed above)"; exit 1; \
	fi; \
	echo "fma-check: no fused multiply-add from rhs.go in the arm64 build"

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
