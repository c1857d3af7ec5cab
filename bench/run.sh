#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Everything
# the Go toolchain and the benchmark write stays under .bench_build/ in the
# checkout: build cache, module cache, temporary files, binaries, results.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off
export TMPDIR="$build/tmp" HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
