#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments, for example:
#   bash perfbench/run.sh --workload session_short --seed 1 --seconds 10 --trace 0
# Build cache, binary, span dumps and grid output all stay under
# .bench_build/ at the root of the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
