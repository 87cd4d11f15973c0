#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build
# directory (a no-op when nothing changed) and runs it with the given
# arguments. Everything Go writes — build cache, temporary files, the
# module cache, telemetry counters, the binary, the benchmark's own
# scratch data — stays under .bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/lwcbenchmark" .)
cd "$root"
exec "$build/lwcbenchmark" -workdir "$build" "$@"
