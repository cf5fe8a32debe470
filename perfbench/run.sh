#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload replay-acl10k --seed 1 --seconds 45 --trace 0
#
# Run from the repository root. Build outputs and span dumps go under
# .bench_build/ in the current directory; nothing is read or written
# outside it apart from the Go toolchain itself.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# Keep the toolchain's caches, config and telemetry counters in there too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
