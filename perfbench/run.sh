#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on, for example:
#
#   bash perfbench/run.sh --workload chaos-day --seed 1 --seconds 20 --trace 0
#
# The build cache and binary live in .bench_build/ under the current
# directory, so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (reesift sources not found in $root)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off CGO_ENABLED=0
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
