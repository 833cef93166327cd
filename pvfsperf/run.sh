#!/usr/bin/env bash
# Builds pvfsperf from source and runs it with the arguments given. This is
# BENCHMARK.json's command, run from the root of a checkout. Everything the
# build and the run write — build cache, binary, temporary files, results —
# stays under .bench_build in that checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its telemetry counters
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go build -C "$here" -o "$build/pvfsperf" .
exec "$build/pvfsperf" -out "$build/out" "$@"
