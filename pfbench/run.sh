#!/usr/bin/env bash
# Builds the benchmark and the pfairtrace binary from this checkout, then
# runs one workload. Run it from the repository root:
#
#   bash pfbench/run.sh --workload fig34-sweep --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build): the Go build cache,
# the binaries, exported traces and span files. The builds finish before
# the benchmark starts, so no timing includes them.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/pfbench"
build="$(cd "$build" && pwd)"
bin="$build/pfbench"

export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export GOTMPDIR="$build/go-tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
mkdir -p "$GOTMPDIR" "$XDG_CONFIG_HOME"

(cd pfbench && go build -o "$bin/pfbench" .)
go build -o "$bin/pfairtrace" ./cmd/pfairtrace
exec "$bin/pfbench" -out "$bin/out" -pfairtrace "$bin/pfairtrace" "$@"
