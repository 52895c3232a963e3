GO ?= go

.PHONY: build test race bench bench-smoke bench-check bench-record bench-e2e bench-e2e-compare profile vet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -short -race ./...

vet:
	$(GO) vet ./...

# bench regenerates BENCH_core.json: the materialization cost matrix
# ({delta, full-copy} x {workers 1,4} x {device 1x,2x}) the perf acceptance
# gates read. Best-of-10 per cell so the committed minima are stable; see
# cmd/benchcore.
bench:
	$(GO) run ./cmd/benchcore -rounds 10 -o BENCH_core.json

# bench-smoke is the CI variant: one round, printed to stdout.
bench-smoke:
	$(GO) run ./cmd/benchcore -rounds 1

# bench-check is the perf regression gate: re-measure and fail if the
# delta-path ns/state geomean regresses >15% against the committed
# baseline, after calibrating out machine speed via the full-copy rows.
# Also reports (informationally) where the run stands against the
# BENCH_trajectory.jsonl seed and best-known rows.
bench-check:
	$(GO) run ./cmd/benchcore -check BENCH_core.json -rounds 10

# bench-record refreshes BENCH_core.json AND appends a dated delta-path
# summary row (git SHA, geomean ns/state, geomean states/sec) to
# BENCH_trajectory.jsonl — the perf history that survives baseline
# refreshes.
bench-record:
	$(GO) run ./cmd/benchcore -rounds 10 -record -o BENCH_core.json

# bench-e2e runs the repository benchmark (bench/, a module of its own; see
# bench/README.md): wall time to a census over five workloads, written to
# bench/out/summary.json. bench-e2e-compare judges two such summaries row by
# row: make bench-e2e-compare A=out/a.json B=out/b.json (paths as bench/
# sees them).
bench-e2e:
	$(GO) run -C bench chipmunk/bench

bench-e2e-compare:
	$(GO) run -C bench chipmunk/bench -compare $(A) $(B)

# profile writes pprof CPU and heap profiles of the measurement matrix for
# `go tool pprof bench_cpu.pprof` / `go tool pprof bench_mem.pprof`.
profile:
	$(GO) run ./cmd/benchcore -rounds 3 -cpuprofile bench_cpu.pprof -memprofile bench_mem.pprof -o /dev/null
