#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags,
# from the root of a checkout:
#
#   bash perfbench/run.sh --workload nersc-sweep --seed 1 --seconds 15 --trace 0
#
# Everything it writes (build cache, binary, traces) stays under
# .bench_build in the checkout. The build needs the repository's
# go.mod one directory up, so it fails outside a full checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
out="$build/perfbench"
mkdir -p "$out/tmp"
# Keep the toolchain's own writes (build cache, temp files, module
# cache, telemetry counters under the user config dir) in the checkout.
export GOCACHE="$build/gocache" GOTMPDIR="$out/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
