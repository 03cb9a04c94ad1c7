#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload fig5 --seed 1 --seconds 10 --trace 0
#
# Every build artefact, including the Go build cache, stays under the
# build directory ($CARGO_TARGET_DIR, default .bench_build) so a run
# reads and writes nothing outside the checkout. The toolchain runs
# offline: the module has no dependencies beyond the repository itself.
set -euo pipefail

build_dir=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build_dir"
build_dir=$(cd "$build_dir" && pwd)

export GOCACHE="$build_dir/gocache"
export GOMODCACHE="$build_dir/gomodcache"
export GOPATH="$build_dir/gopath"
export GOENV=off GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS=-mod=mod

(cd "$(dirname "$0")" && go build -o "$build_dir/perfbench" .) >&2
exec "$build_dir/perfbench" "$@"
