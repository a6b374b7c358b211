#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash uopsbench/run.sh --workload isa-cold --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and the
# run's scratch stores all live under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOENV=off
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOPROXY=off

(cd "$root/uopsbench" && go build -o "$build/uopsbench" .)
exec "$build/uopsbench" --dir "$build/stores" "$@"
