#!/usr/bin/env bash
# Builds the relaxd end-to-end benchmark from source and runs it.
# Run from the repository root:
#
#   bash relaxbench/run.sh --workload fresh-2c --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build in
# the current directory: the Go build cache, the Go tool's own config
# and telemetry, the binary and the sites' stores.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd relaxbench && go build -o "$build/relaxbench" .)
exec "$build/relaxbench" --dir "$build/run" "$@"
