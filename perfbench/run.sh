#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload oltp-closed --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build in the repository root.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off CGO_ENABLED=0

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
