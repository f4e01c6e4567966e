#!/usr/bin/env bash
# Builds bench/hwbench from the checkout it is run in and runs it with the
# arguments given. The benchmark is a module of its own (bench/go.mod) that
# takes the lock manager from the checkout's root. Everything the build
# leaves behind (binary, Go build cache, Go's temporary files) stays under
# .bench_build in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f bench/go.mod ]; then
	echo "bench/run.sh: run from the root of a checkout of the repository (go.mod and bench/go.mod must be here)" >&2
	exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off
# The go command keeps its telemetry counters under the user's configuration
# directory; keep those in the checkout too.
export XDG_CONFIG_HOME="$build/config"
(cd bench && go build -o "$build/hwbench" ./hwbench)
exec "$build/hwbench" "$@"
