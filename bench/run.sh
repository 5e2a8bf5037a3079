#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload corpus-cold --seed 1 --seconds 25 --trace 0
#
# The Go build cache, module cache, temporary files and the binary all go
# under .bench_build/ in the current directory, and HOME points there too
# so the toolchain writes nothing outside it. The benchmark module
# (bench/go.mod) replaces the repository module with ../, so outside a
# full checkout the build, and with it this script, fails.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off

(cd "$root/bench" && go build -o "$build/bench" .) >&2
exec "$build/bench" "$@"
