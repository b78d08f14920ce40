#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/ in
# the current directory.
set -euo pipefail

root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/tmp" "${build}/config"
export GOCACHE="${build}/gocache"
export GOMODCACHE="${build}/gomodcache"
export GOPATH="${build}/gopath"
export GOTMPDIR="${build}/tmp"
export TMPDIR="${build}/tmp"
export XDG_CONFIG_HOME="${build}/config"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false

bin="${build}/perfbench-bin"
(cd "${root}/perfbench" && go build -o "${bin}" .)
exec "${bin}" --root "${root}" "$@"
