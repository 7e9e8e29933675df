#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Everything
# the build leaves behind (compiler cache, temporary files, the binary) stays
# in .bench_build at the root of the checkout; nothing outside the checkout
# is read or written.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomod"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
(cd "$here" && go build -o "$build/sdpbench" .)
cd "$root"
exec "$build/sdpbench" "$@"
