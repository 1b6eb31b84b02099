#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash tools/benchrun/run.sh --workload glb-attrib --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build: the Go
# build cache, temporary files, the binary and the run's scratch state.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0

(cd tools/benchrun && go build -o "$build/bin/benchrun" .)
exec "$build/bin/benchrun" "$@"
