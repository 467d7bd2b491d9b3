#!/usr/bin/env bash
# Builds the serving benchmark from this checkout's source and runs it with
# the given arguments, e.g.
#
#   bash benchmark/run.sh --workload wire-open --seed 3 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and run write stays
# under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/benchmark" && go build -o "$out/serving-bench" .)
exec "$out/serving-bench" "$@"
