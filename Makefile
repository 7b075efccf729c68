# Developer entry points. `make check` is the gate a change must pass:
# scripts/check.sh builds, vets, and runs the racy seams focused and then
# the full test suite under the race detector (the parallel scan engine
# is exercised concurrently, so -race is load-bearing, not decoration).

GO ?= go

.PHONY: check build vet test experiments

check:
	scripts/check.sh

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

experiments:
	$(GO) run ./cmd/experiments
