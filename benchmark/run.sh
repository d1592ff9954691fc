#!/bin/bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there with the arguments given. Everything the Go
# toolchain writes (build cache, module path, telemetry) is kept inside
# .bench_build/ too.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
GOENV=off GOTOOLCHAIN=local GOPROXY=off \
	go build -C benchmark -o "$build/mantle-benchmark" .
exec "$build/mantle-benchmark" "$@"
