#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash perfbench/run.sh --workload figures|campaign|serve --seed N --seconds N --trace 0|1
#
# Run it from the repository root. Build outputs, the Go build cache, span
# files and determinism records go under $CARGO_TARGET_DIR (default
# .bench_build), so nothing outside the checkout is written.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/perfbench"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -trimpath -buildvcs=false -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" --out "$build/perfbench" "$@"
