#!/usr/bin/env bash
# Launcher named by BENCHMARK.json: builds the benchmark (and the program
# under test it links) from source into .bench_build/ inside the checkout,
# then runs it with the driver's arguments. Every cache and temporary the
# Go toolchain writes is redirected into the checkout, so a run reads and
# writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/mbacbench" .)
cd "$root"
exec "$build/mbacbench" "$@"
