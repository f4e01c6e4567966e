GO ?= go

# The archived bench run, BENCH_<tag>.{txt,json}: `bench` rewrites it,
# `benchsmoke` gates allocs/op against it.
BENCH_OUT ?= BENCH_PR8

.PHONY: all build vet test race lint audit fuzzsmoke bench benchsmoke benchcheck ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Static analysis: gofmt-clean sources, go vet, plus the project's own
# analyzers (cmd/hwlint: shard lock ordering, callbacks under shard
# mutexes, nondeterministic map-iteration output, direct metric-field
# access). Zero findings required; deliberate exceptions carry
# //hwlint:allow annotations.
lint: vet
	test -z "$$(gofmt -l .)"
	$(GO) run ./cmd/hwlint ./...

# Runtime invariant audit: the whole test suite with the invariants
# build tag, which arms the paper-property auditor (internal/audit) on
# every Audit-enabled manager — each detector activation is re-verified
# against Theorem 1/3.1/4.1 and Lemma 4.1 from scratch.
audit:
	$(GO) test -tags=invariants ./...

# Ten seconds of each fuzzer beyond its checked-in seeds. FuzzTableOps:
# requests, commits, aborts and the detector's queue surgery in
# arbitrary order, the table's invariants — the maintained active set
# among them — checked after every operation. FuzzDispatch: wire request
# streams answered by a live server and by the old string dispatcher,
# reply for reply.
fuzzsmoke:
	$(GO) test -run xxx -fuzz FuzzTableOps -fuzztime 10s ./internal/table
	$(GO) test -run xxx -fuzz FuzzDispatch -fuzztime 10s ./lockservice

# Full bench sweep with allocation stats; the text output is archived
# alongside a JSON rendering (cmd/benchjson) for diffing across PRs.
bench:
	$(GO) test -run xxx -bench . -benchtime 200ms -benchmem ./... | tee $(BENCH_OUT).txt | $(GO) run ./cmd/benchjson > $(BENCH_OUT).json

# Quick harness check used by CI: the public-API benchmarks (uncontended,
# conflict hand-off, group acquisition) and the detector activations
# (snapshot rounds, storm rounds among bystanders, a bare steady-state
# Run — all allocation-free once warm) piped straight into the archived
# allocs-only gate (E22 showed cross-run ns/op on this host is
# environment-dominated, so only allocs/op growth fails), so an alloc
# regression on the hot path fails CI even between full bench sweeps. Time-based -benchtime so warm-up allocations
# (pools, freelists, first map growth) amortize out of allocs/op; -cpu 1
# because the archive was recorded at procs: 1 and MetricsSnapshot's
# allocs/op depends on the shard count, which follows GOMAXPROCS.
benchsmoke:
	$(GO) test -run xxx -bench 'BenchmarkManagerUncontended|BenchmarkManagerConflict$$|BenchmarkManagerLockAll|BenchmarkMetricsSnapshot|BenchmarkDetectorActivation|BenchmarkDetectSteadyState' -benchtime 50ms -benchmem -cpu 1 . | $(GO) run ./cmd/benchjson compare -allocs-only $(BENCH_OUT).json -

# hwbench (bench/, a module of its own that imports this one through a
# replace directive) is outside `./...`: vet it and run its smoke and
# BENCHMARK.json drift tests against the working tree, so a removed
# exported name that the benchmark still reads fails here instead of at
# the next benchmark run.
benchcheck:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The gate CI runs: everything must pass, including the race detector
# over the cross-shard stress tests, the static analyzers, and the
# invariants-tagged audit suite.
ci: build lint test race audit fuzzsmoke benchcheck
