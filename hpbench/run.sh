#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it with the given arguments. Run it from the root of a checkout:
#
#   bash hpbench/run.sh --workload batch-perm-64 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# current directory (Go build cache and GOPATH, the go command's config and
# telemetry counters, temporary files, the binary, the service workload's WAL and
# checkpoints, span files).
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export GOMAXPROCS="$(nproc)"

(cd "$here" && go build -buildvcs=false -o "$build/hpbench" .)
exec "$build/hpbench" "$@"
