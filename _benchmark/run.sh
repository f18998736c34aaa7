#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from the
# repository root:
#
#   bash _benchmark/run.sh --workload knn-steady --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, the binary, the run's
# journal and snapshot files) goes under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=readonly

go -C "$here" build -o "$out/srb-benchmark" .
exec "$out/srb-benchmark" --workdir "$out" "$@"
