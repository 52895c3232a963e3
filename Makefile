GO ?= go

.PHONY: build test race bench-e2e bench-e2e-compare vet

build:
	$(GO) build ./...

# The benchmark module (bench/) is a module of its own that ./... does not
# reach: vet and test it too, so a symbol it drives cannot be dropped unseen.
test:
	$(GO) test ./...
	$(GO) vet -C bench ./... && $(GO) test -C bench ./...

race:
	$(GO) test -short -race ./...

vet:
	$(GO) vet ./...

# bench-e2e runs the repository benchmark (bench/, a module of its own; see
# bench/README.md): wall time to a census over five workloads, written to
# bench/out/summary.json. bench-e2e-compare judges two such summaries row by
# row: make bench-e2e-compare A=out/a.json B=out/b.json (paths as bench/
# sees them).
bench-e2e:
	$(GO) run -C bench chipmunk/bench

bench-e2e-compare:
	$(GO) run -C bench chipmunk/bench -compare $(A) $(B)
