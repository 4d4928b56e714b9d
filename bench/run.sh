#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, from the
# root of a checkout:
#
#   bash bench/run.sh --workload dense-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, telemetry, the binary) stays
# under .bench_build/ in the checkout. The build fails, and the script exits
# non-zero without printing a result, when the module sources are missing.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOENV=off

(cd "$root/bench" && go build -o "$out/seabench-bench" .)
exec "$out/seabench-bench" "$@"
