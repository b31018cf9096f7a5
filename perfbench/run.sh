#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. All build
# state (Go build cache, binary, work and trace files) stays under the
# build directory: $CARGO_TARGET_DIR when set, .bench_build otherwise.
#
#   bash perfbench/run.sh --workload paper --seed 42 --seconds 20 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

# Keep the go command's caches and config lookups inside the build
# directory and away from the network.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off GOPROXY=off
mkdir -p "$HOME"

(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -out "$build/perfbench-out" "$@"
