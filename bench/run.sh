#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash bench/run.sh [-workload W|all] [-seed N] [-seconds S] [-trace 0|1]
#
# Go's build cache, module cache and settings are kept under .bench_build,
# so building and running write nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
