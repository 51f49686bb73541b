#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments (see BENCHMARK.json at the repository root). Run it from
# the repository root:
#
#   bash vlcbench/run.sh --workload fig15_steady --seed 1 --seconds 15 --trace 0
#
# Every file the build writes (Go build cache, binary, span dumps) stays
# under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd vlcbench && go build -o "$out/vlcbench" .)
exec "$out/vlcbench" "$@"
