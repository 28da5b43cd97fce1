#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in, then
# runs it with the given arguments. Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload point_http --seed 1 --seconds 10 --trace 0
#
# Build outputs, Go caches and traced spans stay under .bench_build.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=

PERFBENCH_REV=unknown
if [ -d .git ]; then
	PERFBENCH_REV=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
export PERFBENCH_REV

(cd perfbench && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
