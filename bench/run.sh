#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags. Run it
# from the repository root, for example:
#
#   bash bench/run.sh --workload steady --seed 1 --seconds 5 --trace 0
#
# Everything the build and the run write (Go's build cache, temporary
# files, the binary) stays under .bench_build in the current directory.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/cache" "$build/tmp" "$build/home"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
	GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
