# Developer entry points. `make check` is the gate a change must pass:
# scripts/check.sh builds, vets, and runs the racy seams focused and then
# the full test suite under the race detector (the parallel scan engine
# is exercised concurrently, so -race is load-bearing, not decoration).

GO ?= go

.PHONY: check build vet test bench experiments benchjson benchcmp

check:
	scripts/check.sh

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

experiments:
	$(GO) run ./cmd/benchtab

# Machine-readable benchmark report (BENCH_<tag>.json): counted
# quantities plus the E13 TPS-vs-workers curve, for diffing revisions.
benchjson:
	scripts/bench.sh

# Metric-by-metric diff of two benchjson reports:
#   make benchcmp NEW=BENCH_pr4.json            # against the seed
#   make benchcmp OLD=BENCH_a.json NEW=BENCH_b.json
OLD ?= BENCH_seed.json
benchcmp:
	scripts/benchdiff.sh $(OLD) $(NEW)
