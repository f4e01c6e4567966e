GO ?= go

.PHONY: all build vet test race lint fuzzsmoke benchcheck mains ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The plain suite. It carries the allocation gates: TestAllocationPins
# (public API and detector activations), TestWireVerbAllocs and
# TestKVTxnAllocs, which -race skips. Every manager a test opens with
# the audit hook set has the paper-property auditor (internal/audit)
# re-verify each detector activation against Theorem 1/3.1/4.1 and
# Lemma 4.1 from scratch, here and under -race alike.
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

# Ten seconds of each fuzzer beyond its checked-in seeds. FuzzTableOps:
# requests, commits, aborts and the detector's queue surgery in
# arbitrary order, the table's invariants — the maintained active set
# among them — checked after every operation. FuzzDispatch: wire request
# streams answered by a live server and by the old string dispatcher,
# reply for reply. FuzzTailStream: arbitrary frames after a TAIL header
# read by the client, which must not panic or trust a BATCH count.
# FuzzClientReplies: arbitrary replies to STATS, PING, BEGIN, LOCK and
# COMMIT (with the BEGIN sent behind it), which must return once the
# server closes.
# FuzzViews: arbitrary HWJRNL01 dumps decoded and run through every
# journal view, none of which may panic.
fuzzsmoke:
	$(GO) test -run xxx -fuzz FuzzTableOps -fuzztime 10s ./internal/table
	$(GO) test -run xxx -fuzz FuzzDispatch -fuzztime 10s ./lockservice
	$(GO) test -run xxx -fuzz FuzzTailStream -fuzztime 10s ./lockservice
	$(GO) test -run xxx -fuzz FuzzClientReplies -fuzztime 10s ./lockservice
	$(GO) test -run xxx -fuzz FuzzViews -fuzztime 10s ./internal/jview

# hwbench (bench/, a module of its own that imports this one through a
# replace directive) is outside `./...`: vet it and run its smoke and
# BENCHMARK.json drift tests against the working tree, so a removed
# exported name that the benchmark still reads fails here instead of at
# the next benchmark run.
benchcheck:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Every main package has a test file, so `go test ./...` runs each
# example and tool instead of only compiling it. cmd/hwlint is exempt:
# `make lint` runs it, and internal/analysis tests its analyzers.
mains:
	@untested="$$($(GO) list -f '{{if and (eq .Name "main") (not .TestGoFiles)}}{{.ImportPath}}{{end}}' ./... | grep -vx -e '' -e 'hwtwbg/cmd/hwlint')"; \
	test -z "$$untested" || { echo "main packages without a test file:"; echo "$$untested"; exit 1; }

# The gate CI runs: everything must pass, including the race detector
# over the cross-shard stress tests (audited, like the plain suite) and
# the static analyzers.
ci: build lint mains test race fuzzsmoke benchcheck
