#!/usr/bin/env bash
# Builds polobench from source and runs it with the given arguments:
#
#   bash polobench/run.sh --workload pair-cold --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# run's scratch state (stores, span files) all live under .bench_build/
# in that directory; nothing is written elsewhere.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off

(cd "$bench" && go build -o "$build/bin/polobench" .)
exec "$build/bin/polobench" "$@"
